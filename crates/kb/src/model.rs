//! The in-memory knowledge base: classes, properties, instances and facts.

use std::sync::{Arc, OnceLock};

use ltee_index::{LabelIndex, SharedLabelIndex};
use ltee_intern::{str_list, StrList};
use ltee_types::{DataType, EquivalenceSet, Value};

use crate::footprint::{Footprint, HeapBytes, HeapSize};
use crate::ids::{ClassId, InstanceId, PropertyId};
use crate::schema::{ClassKey, CLASS_KEYS};

/// How many values of a property — the **first** this many in instance
/// order, duplicates included — the KB-Overlap matcher and KBT scoring
/// compare a column against. The prefix is part of the matcher's
/// definition: a later value that would have matched does not count.
pub const KB_OVERLAP_SAMPLE: usize = 400;

/// A class in the knowledge base with its position in the hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct KnowledgeBaseClass {
    /// Class identifier.
    pub id: ClassId,
    /// Which of the target classes this is.
    pub key: ClassKey,
    /// Class name.
    pub name: String,
    /// Names of all ancestor classes (most specific first, ending in Thing).
    pub ancestors: Vec<String>,
}

/// A property of a knowledge base class.
#[derive(Debug, Clone, PartialEq)]
pub struct Property {
    /// Property identifier.
    pub id: PropertyId,
    /// Owning class.
    pub class: ClassKey,
    /// Property name (e.g. `birthDate`).
    pub name: &'static str,
    /// Data type of the property's values.
    pub data_type: DataType,
    /// Human readable label (used by the KB-Label matcher).
    pub label: &'static str,
}

/// A fact: a typed value for one property of one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Fact {
    /// The property the value belongs to.
    pub property: PropertyId,
    /// The value.
    pub value: Value,
}

/// An instance of the knowledge base.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Instance identifier.
    pub id: InstanceId,
    /// Class of the instance.
    pub class: ClassKey,
    /// The labels, canonical first, then the abstract, as one list: read
    /// through [`Instance::labels`] and [`Instance::abstract_text`].
    texts: StrList,
    /// Number of incoming page links (popularity proxy, used by the
    /// `POPULARITY` metric).
    pub page_links: u64,
    /// The instance's facts.
    pub facts: Box<[Fact]>,
}

impl Instance {
    /// Canonical label plus alternative labels (canonical first).
    pub fn labels(&self) -> str_list::Iter<'_> {
        let mut labels = self.texts.iter();
        labels.next_back();
        labels
    }

    /// The canonical (first) label.
    pub fn canonical_label(&self) -> &str {
        self.labels().next().unwrap_or("")
    }

    /// A short textual abstract (used by the `BOW` entity-to-instance metric).
    pub fn abstract_text(&self) -> &str {
        self.texts.iter().next_back().unwrap_or("")
    }

    /// The labels, then the abstract.
    pub fn labels_and_abstract(&self) -> str_list::Iter<'_> {
        self.texts.iter()
    }

    /// The fact value for a property, if present.
    pub fn fact(&self, property: PropertyId) -> Option<&Value> {
        self.facts.iter().find(|f| f.property == property).map(|f| &f.value)
    }
}

/// Where the facts of one property sit, plus the digested KB-Overlap sample.
#[derive(Debug)]
struct PropertyFacts {
    /// `(instance index, fact index)` of every fact, in instance order.
    positions: Vec<(u32, u32)>,
    /// The first [`KB_OVERLAP_SAMPLE`] values, digested under the
    /// property's data type.
    sample: EquivalenceSet,
}

ltee_intern::heap_size! {
    KnowledgeBaseClass { name, ancestors }
    Property {}
    Fact { value }
    Instance { texts, facts }
    PropertyFacts { positions, sample }
}

/// Data derived from the knowledge base alone, memoised on first use.
///
/// Each part is built lazily and independently (building a KB calls
/// `class_properties` long before anyone needs a label index) and is
/// immutable once built, so clones of the KB share it; every `&mut self`
/// mutator replaces the whole struct with an empty one.
#[derive(Debug, Clone, Default)]
struct Derived {
    /// One sealed label index per class, in [`CLASS_KEYS`] order.
    class_label_indexes: Memo<Vec<(ClassKey, SharedLabelIndex)>>,
    /// The properties of each class, in [`CLASS_KEYS`] order.
    class_properties: Memo<Vec<(ClassKey, Vec<Property>)>>,
    /// Indexed by property id.
    property_facts: Memo<Vec<PropertyFacts>>,
}

/// Built at most once, then shared by every clone of its owner.
type Memo<T> = OnceLock<Arc<T>>;

/// A class's position in [`CLASS_KEYS`], the order of the per-class memos.
fn class_slot(class: ClassKey) -> usize {
    match class {
        ClassKey::GridironFootballPlayer => 0,
        ClassKey::Song => 1,
        ClassKey::Settlement => 2,
    }
}

fn of_class<T>(per_class: &[(ClassKey, T)], class: ClassKey) -> &T {
    &per_class[class_slot(class)].1
}

/// The knowledge base: the DBpedia stand-in the pipeline extends.
#[derive(Debug, Clone, Default)]
pub struct KnowledgeBase {
    classes: Vec<KnowledgeBaseClass>,
    properties: Vec<Property>,
    /// Indexed by instance id: [`KnowledgeBase::add_instance`] mints an
    /// instance's position as its id.
    instances: Vec<Instance>,
    derived: Derived,
}

impl KnowledgeBase {
    /// Create an empty knowledge base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a class.
    pub fn add_class(&mut self, key: ClassKey) -> ClassId {
        self.derived = Derived::default();
        let id = ClassId(self.classes.len() as u64);
        self.classes.push(KnowledgeBaseClass {
            id,
            key,
            name: key.name().to_string(),
            ancestors: key.ancestors().iter().map(|s| s.to_string()).collect(),
        });
        id
    }

    /// Register a property of a class.
    pub fn add_property(&mut self, class: ClassKey, name: &'static str, data_type: DataType, label: &'static str) -> PropertyId {
        self.derived = Derived::default();
        let id = PropertyId(self.properties.len() as u64);
        self.properties.push(Property { id, class, name, data_type, label });
        id
    }

    /// Add an instance and return its id, which is its position among the
    /// instances. Its labels and abstract are kept as one list (so they
    /// may total at most 4 GiB; more panics), its facts exact-sized.
    pub fn add_instance(
        &mut self,
        class: ClassKey,
        labels: Vec<String>,
        abstract_text: String,
        page_links: u64,
        facts: Vec<Fact>,
    ) -> InstanceId {
        self.derived = Derived::default();
        let id = InstanceId(self.instances.len() as u64);
        let Some(texts) = StrList::try_collect(labels.iter().chain([&abstract_text])) else {
            panic!("an instance's labels and abstract exceed 4 GiB");
        };
        self.instances.push(Instance { id, class, texts, page_links, facts: facts.into_boxed_slice() });
        id
    }

    /// Make room for `additional` more instances, exactly: a KB built once
    /// to a known size keeps no spare slots.
    pub fn reserve_instances(&mut self, additional: usize) {
        self.instances.reserve_exact(additional);
    }

    /// All classes.
    pub fn classes(&self) -> &[KnowledgeBaseClass] {
        &self.classes
    }

    /// All properties.
    pub fn properties(&self) -> &[Property] {
        &self.properties
    }

    /// Properties of one class.
    pub fn class_properties(&self, class: ClassKey) -> Vec<&Property> {
        self.class_property_slice(class).iter().collect()
    }

    /// Properties of one class, in registration order, borrowed from the
    /// memo (see [`KnowledgeBase::class_label_indexes`]).
    pub fn class_property_slice(&self, class: ClassKey) -> &[Property] {
        let per_class = self.derived.class_properties.get_or_init(|| {
            let of = |class| self.properties.iter().filter(|p| p.class == class).cloned().collect();
            Arc::new(CLASS_KEYS.iter().map(|&c| (c, of(c))).collect())
        });
        of_class(per_class, class).as_slice()
    }

    /// Look up a property by class and name: a scan of the class's few
    /// properties.
    pub fn property_by_name(&self, class: ClassKey, name: &str) -> Option<&Property> {
        self.properties.iter().find(|p| p.class == class && p.name == name)
    }

    /// Look up a property by id.
    pub fn property(&self, id: PropertyId) -> Option<&Property> {
        self.properties.get(id.0 as usize)
    }

    /// All instances.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Look up an instance by id.
    pub fn instance(&self, id: InstanceId) -> Option<&Instance> {
        self.instances.get(id.0 as usize)
    }

    /// The canonical label of an instance, if the instance exists. Used by
    /// the serving layer to project "linked to existing instance" results
    /// into self-contained records (snapshots must not borrow the KB).
    pub fn instance_label(&self, id: InstanceId) -> Option<&str> {
        self.instance(id).map(Instance::canonical_label)
    }

    /// Number of instances of a class.
    pub fn class_instance_count(&self, class: ClassKey) -> usize {
        self.instances.iter().filter(|i| i.class == class).count()
    }

    /// Number of facts of a class (across all its instances).
    pub fn class_fact_count(&self, class: ClassKey) -> usize {
        self.instances.iter().filter(|i| i.class == class).map(|i| i.facts.len()).sum()
    }

    /// The label indexes over the instances of each class, in
    /// [`CLASS_KEYS`] order (used by table-to-class matching, new detection
    /// candidate selection and the IMPLICIT_ATT metric).
    ///
    /// Like everything derived from the knowledge base alone, they are
    /// built on first use and kept until the next mutation: a KB that is
    /// frozen for serving pays for them once, however many micro-batches
    /// it matches. Nothing is inserted after the build, so each index is
    /// sealed.
    pub fn class_label_indexes(&self) -> &[(ClassKey, SharedLabelIndex)] {
        self.derived.class_label_indexes.get_or_init(|| {
            let mut indexes: Vec<(ClassKey, LabelIndex)> =
                CLASS_KEYS.iter().map(|&c| (c, LabelIndex::new())).collect();
            for inst in &self.instances {
                let (_, index) = &mut indexes[class_slot(inst.class)];
                for label in inst.labels() {
                    index.insert(inst.id.raw(), label);
                }
            }
            Arc::new(indexes.into_iter().map(|(class, index)| (class, index.into_shared())).collect())
        })
    }

    /// The memoised label index of one class.
    pub fn class_label_index(&self, class: ClassKey) -> &LabelIndex {
        of_class::<SharedLabelIndex>(self.class_label_indexes(), class)
    }

    /// An owned copy of [`KnowledgeBase::class_label_index`]. The copy is
    /// sealed too: inserting into it panics.
    pub fn label_index(&self, class: ClassKey) -> LabelIndex {
        self.class_label_index(class).clone()
    }

    /// The heap the knowledge base holds: instances and (once built) label
    /// indexes per class, and the schema with its property memos.
    pub fn footprint(&self) -> Footprint {
        let mut footprint = Footprint::default();
        footprint.add("kb.instances", None, HeapBytes::buffer::<Instance>(self.instances.capacity()), 0);
        for instance in &self.instances {
            footprint.add("kb.instances", Some(instance.class), instance.heap_bytes(), 1);
        }
        if let Some(indexes) = self.derived.class_label_indexes.get() {
            let table = HeapBytes::arc_box::<Vec<(ClassKey, SharedLabelIndex)>>()
                + HeapBytes::buffer::<(ClassKey, SharedLabelIndex)>(indexes.capacity());
            footprint.add("kb.label_index", None, table, 0);
            for (class, index) in indexes.iter() {
                footprint.add("kb.label_index", Some(*class), index.heap_bytes(), index.len());
            }
        }
        let (schema, derived) = (self.classes.heap_bytes() + self.properties.heap_bytes(), &self.derived);
        let memos = derived.class_properties.get().map_or(HeapBytes::ZERO, |memo| memo.heap_bytes())
            + derived.property_facts.get().map_or(HeapBytes::ZERO, |memo| memo.heap_bytes());
        footprint.add("kb.schema", None, schema + memos, self.properties.len());
        footprint
    }

    fn property_facts(&self, property: PropertyId) -> Option<&PropertyFacts> {
        let per_property = self.derived.property_facts.get_or_init(|| {
            let mut positions = vec![Vec::new(); self.properties.len()];
            for (i, inst) in self.instances.iter().enumerate() {
                for (f, fact) in inst.facts.iter().enumerate() {
                    if let Some(of_property) = positions.get_mut(fact.property.0 as usize) {
                        of_property.push((i as u32, f as u32));
                    }
                }
            }
            let digested = positions.into_iter().zip(&self.properties).map(|(positions, property)| {
                let sample = positions.iter().take(KB_OVERLAP_SAMPLE).map(|&at| self.value_at(at));
                PropertyFacts { sample: EquivalenceSet::build(sample, property.data_type), positions }
            });
            Arc::new(digested.collect())
        });
        per_property.get(property.0 as usize)
    }

    fn value_at(&self, (instance, fact): (u32, u32)) -> &Value {
        &self.instances[instance as usize].facts[fact as usize].value
    }

    /// All values of a property across the knowledge base, one per fact in
    /// instance order — **not** deduplicated. Facts of a property id that
    /// was never registered with [`KnowledgeBase::add_property`] are not
    /// reachable.
    pub fn property_values(&self, property: PropertyId) -> Vec<&Value> {
        self.property_facts(property)
            .map(|facts| facts.positions.iter().map(|&at| self.value_at(at)).collect())
            .unwrap_or_default()
    }

    /// The first [`KB_OVERLAP_SAMPLE`] values of a property (the prefix of
    /// [`KnowledgeBase::property_values`]), digested under the property's
    /// data type: what the KB-Overlap matcher and KBT scoring test a
    /// column's values against to see whether they "generally fit" the
    /// property. `None` for an unregistered property id.
    pub fn property_value_sample(&self, property: PropertyId) -> Option<&EquivalenceSet> {
        self.property_facts(property).map(|facts| &facts.sample)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltee_types::Date;

    #[test]
    fn class_slots_follow_class_keys() {
        for (slot, &class) in CLASS_KEYS.iter().enumerate() {
            assert_eq!(class_slot(class), slot, "{class}");
        }
    }

    fn tiny_kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.add_class(ClassKey::Song);
        let artist = kb.add_property(ClassKey::Song, "musicalArtist", DataType::InstanceReference, "artist");
        let runtime = kb.add_property(ClassKey::Song, "runtime", DataType::Quantity, "length");
        kb.add_instance(
            ClassKey::Song,
            vec!["Yellow Submarine".into(), "Yellow Submarine (song)".into()],
            "A song by the Beatles from 1966.".into(),
            500,
            vec![
                Fact { property: artist, value: Value::InstanceRef("The Beatles".into()) },
                Fact { property: runtime, value: Value::Quantity(159.0) },
            ],
        );
        kb.add_instance(
            ClassKey::Song,
            vec!["Let It Be".into()],
            "A song by the Beatles from 1970.".into(),
            800,
            vec![Fact { property: artist, value: Value::InstanceRef("The Beatles".into()) }],
        );
        kb
    }

    #[test]
    fn counts_instances_and_facts() {
        let kb = tiny_kb();
        assert_eq!(kb.class_instance_count(ClassKey::Song), 2);
        assert_eq!(kb.class_fact_count(ClassKey::Song), 3);
        assert_eq!(kb.class_instance_count(ClassKey::Settlement), 0);
    }

    #[test]
    fn property_lookup_by_name() {
        let kb = tiny_kb();
        let p = kb.property_by_name(ClassKey::Song, "runtime").unwrap();
        assert_eq!(p.data_type, DataType::Quantity);
        assert!(kb.property_by_name(ClassKey::Song, "nonexistent").is_none());
    }

    #[test]
    fn instance_lookup_and_fact_access() {
        let kb = tiny_kb();
        let first = kb.instances()[0].id;
        let inst = kb.instance(first).unwrap();
        assert_eq!(inst.canonical_label(), "Yellow Submarine");
        let runtime = kb.property_by_name(ClassKey::Song, "runtime").unwrap().id;
        assert_eq!(inst.fact(runtime), Some(&Value::Quantity(159.0)));
        let artist = kb.property_by_name(ClassKey::Song, "musicalArtist").unwrap().id;
        assert!(inst.fact(artist).is_some());
    }

    #[test]
    fn labels_and_abstract_are_one_list_of_two_blocks() {
        let mut kb = tiny_kb();
        let inst = &kb.instances()[0];
        assert!(inst.labels().eq(["Yellow Submarine", "Yellow Submarine (song)"]));
        assert_eq!(inst.labels().len(), 2);
        assert_eq!(inst.abstract_text(), "A song by the Beatles from 1966.");
        assert_eq!(inst.labels_and_abstract().len(), 3);
        assert_eq!(inst.texts.heap_bytes().blocks, 2);
        let bare = kb.add_instance(ClassKey::Song, vec![], String::new(), 0, vec![]);
        let bare = kb.instance(bare).unwrap();
        assert_eq!((bare.labels().len(), bare.canonical_label(), bare.abstract_text()), (0, "", ""));
    }

    #[test]
    fn label_index_covers_alternative_labels() {
        let kb = tiny_kb();
        let idx = kb.label_index(ClassKey::Song);
        assert_eq!(idx.len(), 3);
        let best = idx.lookup("yellow submarine", 3);
        assert!(best.iter().any(|m| m.id == kb.instances()[0].id.raw()));
    }

    #[test]
    fn instance_label_projects_canonical_label() {
        let kb = tiny_kb();
        let first = kb.instances()[0].id;
        assert_eq!(kb.instance_label(first), Some("Yellow Submarine"));
        assert_eq!(kb.instance_label(crate::ids::InstanceId(999)), None);
    }

    #[test]
    fn property_values_collects_across_instances() {
        let kb = tiny_kb();
        let artist = kb.property_by_name(ClassKey::Song, "musicalArtist").unwrap().id;
        assert_eq!(kb.property_values(artist).len(), 2);
    }

    #[test]
    fn property_values_keep_duplicates_and_instance_order() {
        let mut kb = tiny_kb();
        let runtime = kb.property_by_name(ClassKey::Song, "runtime").unwrap().id;
        let runtime_fact = |seconds| Fact { property: runtime, value: Value::Quantity(seconds) };
        kb.add_instance(
            ClassKey::Song,
            vec!["Hey Jude".into()],
            String::new(),
            900,
            vec![runtime_fact(431.0), runtime_fact(159.0)],
        );
        let values: Vec<f64> = kb.property_values(runtime).iter().filter_map(|v| v.as_f64()).collect();
        assert_eq!(values, [159.0, 431.0, 159.0]);
        assert!(kb.property_values(PropertyId(99)).is_empty());
        assert!(kb.property_value_sample(PropertyId(99)).is_none());
    }

    #[test]
    fn value_sample_is_the_first_values_in_instance_order() {
        let mut kb = KnowledgeBase::new();
        kb.add_class(ClassKey::Song);
        let runtime = kb.add_property(ClassKey::Song, "runtime", DataType::Quantity, "length");
        for i in 0..KB_OVERLAP_SAMPLE + 1 {
            let fact = Fact { property: runtime, value: Value::Quantity(1.5f64.powi(i as i32)) };
            kb.add_instance(ClassKey::Song, vec![format!("song {i}")], String::new(), 0, vec![fact]);
        }
        let sample = kb.property_value_sample(runtime).unwrap();
        assert_eq!(sample.len(), KB_OVERLAP_SAMPLE);
        assert!(sample.contains_equivalent(&Value::Quantity(1.5f64.powi(KB_OVERLAP_SAMPLE as i32 - 1))));
        // The value past the cut-off is in the KB but not in the sample.
        assert_eq!(kb.property_values(runtime).len(), KB_OVERLAP_SAMPLE + 1);
        assert!(!sample.contains_equivalent(&Value::Quantity(1.5f64.powi(KB_OVERLAP_SAMPLE as i32))));
    }

    #[test]
    fn mutation_drops_the_memoised_data() {
        let mut kb = tiny_kb();
        let artist = kb.property_by_name(ClassKey::Song, "musicalArtist").unwrap().id;
        let stones = Value::InstanceRef("the rolling stones".into());
        assert!(kb.class_label_index(ClassKey::Song).exact_ids("paint it black").is_empty());
        assert!(!kb.property_value_sample(artist).unwrap().contains_equivalent(&stones));
        assert_eq!(kb.class_property_slice(ClassKey::Song).len(), 2);

        let id = kb.add_instance(
            ClassKey::Song,
            vec!["Paint It Black".into()],
            String::new(),
            700,
            vec![Fact { property: artist, value: Value::InstanceRef("The Rolling Stones".into()) }],
        );
        assert_eq!(kb.class_label_index(ClassKey::Song).exact_ids("paint it black"), [id.raw()]);
        assert_eq!(kb.label_index(ClassKey::Song).len(), 4);
        assert!(kb.property_value_sample(artist).unwrap().contains_equivalent(&stones));
        assert_eq!(kb.property_values(artist).len(), 3);

        let album = kb.add_property(ClassKey::Song, "album", DataType::InstanceReference, "album");
        assert_eq!(kb.class_property_slice(ClassKey::Song).len(), 3);
        assert_eq!(kb.class_properties(ClassKey::Song).last().unwrap().id, album);
        assert!(kb.property_value_sample(album).unwrap().is_empty());
    }

    #[test]
    fn a_clone_mutated_afterwards_does_not_disturb_the_original() {
        let kb = tiny_kb();
        let artist = kb.property_by_name(ClassKey::Song, "musicalArtist").unwrap().id;
        // Build the memo first, so the clone starts out sharing it.
        assert_eq!(kb.class_label_index(ClassKey::Song).len(), 3);
        assert_eq!(kb.property_values(artist).len(), 2);

        let mut clone = kb.clone();
        clone.add_property(ClassKey::Song, "album", DataType::InstanceReference, "album");
        clone.add_instance(
            ClassKey::Song,
            vec!["Paint It Black".into()],
            String::new(),
            700,
            vec![Fact { property: artist, value: Value::InstanceRef("The Rolling Stones".into()) }],
        );
        assert_eq!(clone.class_label_index(ClassKey::Song).len(), 4);
        assert_eq!(clone.property_values(artist).len(), 3);
        assert_eq!(clone.class_property_slice(ClassKey::Song).len(), 3);

        assert_eq!(kb.class_label_index(ClassKey::Song).len(), 3);
        assert!(kb.class_label_index(ClassKey::Song).exact_ids("paint it black").is_empty());
        assert_eq!(kb.property_values(artist).len(), 2);
        assert_eq!(kb.class_property_slice(ClassKey::Song).len(), 2);
    }

    #[test]
    fn class_properties_filters_by_class() {
        let kb = tiny_kb();
        assert_eq!(kb.class_properties(ClassKey::Song).len(), 2);
        assert!(kb.class_properties(ClassKey::Settlement).is_empty());
    }

    #[test]
    fn facts_can_be_dates() {
        let mut kb = tiny_kb();
        let rel = kb.add_property(ClassKey::Song, "releaseDate", DataType::Date, "released");
        kb.add_instance(
            ClassKey::Song,
            vec!["Hey Jude".into()],
            String::new(),
            900,
            vec![Fact { property: rel, value: Value::Date(Date::year(1968)) }],
        );
        let inst = kb.instances().last().unwrap();
        assert_eq!(inst.fact(rel).unwrap().as_date().unwrap().year, 1968);
    }
}
