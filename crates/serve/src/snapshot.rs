//! Immutable, versioned knowledge-base snapshots.
//!
//! A [`KbSnapshot`] is the unit of consistency of the serving layer: one
//! self-contained, read-only projection of everything the incremental
//! pipeline has produced up to (and including) one micro-batch. Snapshots
//! borrow nothing — entities, provenance, labels and indexes are owned —
//! so a reader holding an `Arc<KbSnapshot>` keeps querying the exact same
//! KB version no matter how many batches ingest after it.
//!
//! Per class the snapshot holds an [`Arc<ClassSnapshot>`]; versions that
//! did not touch a class share the previous version's `ClassSnapshot`
//! physically. A touched class gets a new slice, but a served entity
//! exists once: the slice holds one `Arc<EntityRecord>` per entity, and
//! every entity the batch left alone is the previous version's record
//! (`ClassSnapshot::build_delta`). What a version owns is therefore its
//! label indexes and one pointer per entity of each class it touched; the
//! records it owns alone are those of the clusters its batch touched.

use std::collections::HashSet;
use std::sync::Arc;

use ltee_fusion::Entity;
use ltee_index::{LabelIndex, NormalizedLabel, SharedLabelIndex};
use ltee_kb::{ClassKey, Footprint, HeapBytes, HeapSize, InstanceId, KnowledgeBase, CLASS_KEYS};
use ltee_newdetect::{NewDetectionOutcome, NewDetectionResult};
use ltee_types::Value;
use ltee_webtables::{RowRef, TableId};

use crate::query::{EntityHit, EntityRef};

/// How a served entity relates to the knowledge base it extends.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkOutcome {
    /// The entity is missing from the knowledge base — a long-tail find.
    New,
    /// The entity was matched to an existing knowledge base instance.
    Existing {
        /// The matched instance.
        instance: InstanceId,
        /// The instance's canonical label, projected at snapshot build time
        /// so the record needs no KB access to display the link.
        label: String,
    },
}

impl LinkOutcome {
    /// Whether the entity was classified as new.
    pub fn is_new(&self) -> bool {
        matches!(self, LinkOutcome::New)
    }
}

/// One served entity: the self-contained projection of a fused entity plus
/// its new-detection verdict and full table provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct EntityRecord {
    /// The entity's class.
    pub class: ClassKey,
    /// Labels extracted from the entity's rows, most frequent first.
    pub labels: Vec<String>,
    /// Fused facts: property → (value, support score).
    pub facts: Vec<(&'static str, Value, f64)>,
    /// The web table rows the entity was fused from (row-level provenance).
    pub rows: Vec<RowRef>,
    /// The distinct tables behind those rows, ascending (table provenance).
    pub tables: Vec<TableId>,
    /// New-or-existing verdict, with the linked instance projected in.
    pub outcome: LinkOutcome,
    /// The best KB candidate's aggregated score (0.0 without candidates).
    pub best_score: f64,
    /// Number of KB candidates new detection considered.
    pub candidate_count: usize,
}

impl HeapSize for EntityRecord {
    fn heap_bytes(&self) -> HeapBytes {
        let label = if let LinkOutcome::Existing { label, .. } = &self.outcome { label.heap_bytes() } else { HeapBytes::ZERO };
        self.labels.heap_bytes() + self.facts.heap_bytes() + self.rows.heap_bytes() + self.tables.heap_bytes() + label
    }
}

impl EntityRecord {
    /// Project one fused entity and its new-detection verdict.
    fn project(
        kb: &KnowledgeBase,
        class: ClassKey,
        entity: &Entity,
        result: &NewDetectionResult,
    ) -> Self {
        let outcome = match result.outcome {
            NewDetectionOutcome::New => LinkOutcome::New,
            NewDetectionOutcome::Existing(instance) => LinkOutcome::Existing {
                instance,
                label: kb.instance_label(instance).unwrap_or_default().to_string(),
            },
        };
        Self {
            class,
            labels: entity.labels.clone(),
            facts: entity.facts.clone(),
            rows: entity.rows.clone(),
            tables: entity.provenance_tables(),
            outcome,
            best_score: result.best_score,
            candidate_count: result.candidate_count,
        }
    }

    /// The canonical (most frequent) label.
    pub fn canonical_label(&self) -> &str {
        self.labels.first().map(String::as_str).unwrap_or("")
    }

    /// The fused value of a property, if present.
    pub fn fact(&self, property: &str) -> Option<&Value> {
        self.facts.iter().find(|(p, _, _)| *p == property).map(|(_, v, _)| v)
    }
}

/// A record compares with a shared handle to one by content, so a list of
/// owned records can be checked against [`ClassSnapshot::records`].
impl PartialEq<Arc<EntityRecord>> for EntityRecord {
    fn eq(&self, other: &Arc<EntityRecord>) -> bool {
        *self == **other
    }
}

/// The per-class slice of a snapshot: entity records plus a sealed label
/// index over every record label (record position = index id).
#[derive(Debug)]
pub struct ClassSnapshot {
    class: ClassKey,
    /// One handle per entity; a record is shared with every retained
    /// version whose batch did not touch its cluster.
    records: Vec<Arc<EntityRecord>>,
    index: SharedLabelIndex,
    /// Aggregates, computed once at build time — the slice is immutable,
    /// so stats queries must not re-scan the records per call.
    stats: ClassStats,
}

impl ClassSnapshot {
    /// Project one class's accumulated pipeline output into a
    /// self-contained snapshot slice, every record fresh. Recovery builds
    /// this way; ingest publishes by [`ClassSnapshot::build_delta`], which
    /// must serve the same slice.
    pub(crate) fn build(
        kb: &KnowledgeBase,
        class: ClassKey,
        entities: &[Entity],
        results: &[NewDetectionResult],
    ) -> Self {
        Self::build_delta(None, &[], kb, class, entities, results)
    }

    /// The slice after a batch that created or extended exactly the
    /// clusters `touched` (ascending, as
    /// [`ltee_core::IngestReport::touched_clusters`] lists them):
    /// `previous`'s record for every other position, a fresh projection for
    /// the touched and the new ones (`None`: the class's first batch, all
    /// new). The label index is rebuilt in full, so a delta costs
    /// O(touched) in records and O(class) in index.
    pub(crate) fn build_delta(
        previous: Option<&ClassSnapshot>,
        touched: &[usize],
        kb: &KnowledgeBase,
        class: ClassKey,
        entities: &[Entity],
        results: &[NewDetectionResult],
    ) -> Self {
        let previous = previous.map_or(&[][..], |slice| &slice.records);
        debug_assert_eq!(entities.len(), results.len());
        debug_assert!(touched.windows(2).all(|w| w[0] < w[1]), "touched clusters ascend");
        let mut touched = touched.iter().copied().peekable();
        let mut index = LabelIndex::new();
        let mut records = Vec::with_capacity(entities.len());
        let mut stats =
            ClassStats { class, entities: entities.len(), new_entities: 0, linked_entities: 0, rows: 0 };
        for (pos, (entity, result)) in entities.iter().zip(results).enumerate() {
            for label in &entity.labels {
                index.insert(pos as u64, label);
            }
            let is_touched = touched.next_if_eq(&pos).is_some();
            let record = match previous.get(pos) {
                Some(kept) if !is_touched => {
                    debug_assert_eq!(
                        **kept,
                        EntityRecord::project(kb, class, entity, result),
                        "{class}: cluster {pos} changed but was not reported touched"
                    );
                    Arc::clone(kept)
                }
                _ => Arc::new(EntityRecord::project(kb, class, entity, result)),
            };
            if record.outcome.is_new() {
                stats.new_entities += 1;
            } else {
                stats.linked_entities += 1;
            }
            stats.rows += record.rows.len();
            records.push(record);
        }
        Self { class, records, index: index.into_shared(), stats }
    }

    /// Aggregate figures of the slice (precomputed at build time).
    pub fn stats(&self) -> &ClassStats {
        &self.stats
    }

    /// The class this slice serves.
    pub fn class(&self) -> ClassKey {
        self.class
    }

    /// All entity records, in cluster order (stable across versions that
    /// extend rather than rebuild a cluster). Each handle is the one copy
    /// of its record: versions whose batches left the cluster alone hold
    /// the same `Arc`.
    pub fn records(&self) -> &[Arc<EntityRecord>] {
        &self.records
    }

    /// One record by position.
    pub fn record(&self, id: u32) -> Option<&Arc<EntityRecord>> {
        self.records.get(id as usize)
    }

    /// The sealed label index over this class's entity labels.
    pub fn index(&self) -> &SharedLabelIndex {
        &self.index
    }

    /// Number of entities served for the class.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the class has no entities yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// The heap of resident snapshot versions, each shared slice, index and
/// record counted once.
pub(crate) fn versions_footprint(versions: &[Arc<KbSnapshot>]) -> Footprint {
    let mut footprint = Footprint::default();
    let (mut slices, mut records) = (HashSet::new(), HashSet::new());
    for version in versions {
        let slots = HeapBytes::buffer::<Option<Arc<ClassSnapshot>>>(version.classes.capacity());
        footprint.add("snapshot.versions", None, HeapBytes::arc_box::<KbSnapshot>() + slots, 1);
        for slice in version.classes.iter().flatten().filter(|slice| slices.insert(Arc::as_ptr(slice))) {
            let (class, pointers) = (Some(slice.class), HeapBytes::buffer::<Arc<EntityRecord>>(slice.records.capacity()));
            footprint.add("snapshot.slices", class, HeapBytes::arc_box::<ClassSnapshot>() + pointers, 1);
            footprint.add("snapshot.index", class, slice.index.heap_bytes(), slice.index.len());
            for record in slice.records.iter().filter(|record| records.insert(Arc::as_ptr(record))) {
                footprint.add("snapshot.records", class, record.heap_bytes(), 1);
            }
        }
    }
    footprint
}

/// Aggregate figures of one class inside a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassStats {
    /// The class.
    pub class: ClassKey,
    /// Entities served.
    pub entities: usize,
    /// Entities classified as new (KB extensions).
    pub new_entities: usize,
    /// Entities linked to existing KB instances.
    pub linked_entities: usize,
    /// Web table rows backing the class's entities.
    pub rows: usize,
}

/// Aggregate figures of a whole snapshot — cheap to compute, and precise
/// enough that two snapshots of the same version always agree on them
/// (the isolation stress test leans on this).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotStats {
    /// The snapshot version.
    pub version: u64,
    /// Tables ingested up to this version.
    pub tables: usize,
    /// Raw rows ingested up to this version.
    pub rows: usize,
    /// Per-class figures, only classes with at least one entity.
    pub classes: Vec<ClassStats>,
}

/// One immutable version of the served knowledge base.
///
/// See the [module docs](self) for the consistency model. Obtained from a
/// [`crate::SnapshotReader`] (always the latest published version) and
/// queried through the methods here or through
/// [`KbSnapshot::execute`] / [`KbSnapshot::execute_batch`].
#[derive(Debug)]
pub struct KbSnapshot {
    version: u64,
    tables: usize,
    rows: usize,
    /// One slot per [`CLASS_KEYS`] entry; `None` until the class first
    /// produces an entity.
    classes: Vec<Option<Arc<ClassSnapshot>>>,
}

impl KbSnapshot {
    /// The version-0 snapshot: nothing ingested yet.
    pub(crate) fn empty() -> Self {
        Self { version: 0, tables: 0, rows: 0, classes: vec![None; CLASS_KEYS.len()] }
    }

    /// Assemble a snapshot from the per-class cache of a publisher.
    pub(crate) fn assemble(
        version: u64,
        tables: usize,
        rows: usize,
        classes: Vec<Option<Arc<ClassSnapshot>>>,
    ) -> Self {
        debug_assert_eq!(classes.len(), CLASS_KEYS.len());
        Self { version, tables, rows, classes }
    }

    /// The snapshot's version: 0 for the empty initial snapshot, then
    /// incremented by exactly 1 per published ingest (strictly monotonic).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Build a synthetic snapshot whose heap footprint is a constant
    /// `payload_slots × 8` bytes regardless of version — the reclamation
    /// soak publishes thousands of these through a raw cell so a
    /// counting allocator can prove resident bytes plateau at the
    /// current version plus the versions readers hold, instead of growing
    /// with version count. (A real
    /// pipeline's snapshots share untouched class slices across versions
    /// *and* legitimately grow with corpus size, which would drown the
    /// signal.) Test support, not API: hidden, and useless for serving.
    #[doc(hidden)]
    pub fn synthetic_for_soak(version: u64, payload_slots: usize) -> Self {
        Self {
            version,
            tables: version as usize + 7,
            rows: 3 * version as usize,
            classes: vec![None; payload_slots.max(CLASS_KEYS.len())],
        }
    }

    /// Tables ingested up to this version.
    pub fn tables(&self) -> usize {
        self.tables
    }

    /// Raw rows ingested up to this version.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// A content fingerprint of everything this snapshot serves: version,
    /// corpus counters, and every record of every class slice — labels,
    /// facts, provenance, link outcome, with `f64`s hashed by exact bit
    /// pattern. Two snapshots answer every query identically iff their
    /// fingerprints match, which is what the recovery-equivalence suite
    /// asserts between a recovered process and the never-crashed run.
    pub fn fingerprint(&self) -> u64 {
        use std::fmt::Write as _;
        let mut canon = String::new();
        let _ = write!(canon, "v{};t{};r{}", self.version, self.tables, self.rows);
        for (slot, class) in self.classes.iter().enumerate() {
            let Some(class) = class else {
                let _ = write!(canon, "|c{slot}:-");
                continue;
            };
            let _ = write!(canon, "|c{slot}:{}", class.records().len());
            for record in class.records() {
                let _ = write!(canon, "[{:?}", record.labels);
                for (property, value, score) in &record.facts {
                    let _ = write!(canon, ";{property}={value:?}@{:016x}", score.to_bits());
                }
                let _ = write!(canon, ";rows{:?};tables{:?}", record.rows, record.tables);
                match &record.outcome {
                    LinkOutcome::New => canon.push_str(";new"),
                    LinkOutcome::Existing { instance, label } => {
                        let _ = write!(canon, ";={}:{label}", instance.raw());
                    }
                }
                let _ = write!(
                    canon,
                    ";s{:016x};k{}]",
                    record.best_score.to_bits(),
                    record.candidate_count
                );
            }
        }
        ltee_intern::fnv1a64(canon.as_bytes())
    }

    /// The slice serving one class, if it has entities.
    pub fn class(&self, class: ClassKey) -> Option<&ClassSnapshot> {
        self.classes[crate::class_slot(class)?].as_deref()
    }

    /// All non-empty class slices, in [`CLASS_KEYS`] order.
    pub fn classes(&self) -> impl Iterator<Item = &ClassSnapshot> {
        self.classes.iter().filter_map(|c| c.as_deref())
    }

    /// Fetch one entity record — the snapshot's own handle, so cloning it
    /// copies a pointer, not the record.
    pub fn entity(&self, entity: EntityRef) -> Option<&Arc<EntityRecord>> {
        self.class(entity.class)?.record(entity.id)
    }

    /// Entities whose normalised label equals the normalised query, in one
    /// class or (with `None`) across all classes. Exact hits score 1.0.
    /// The query is normalised once, however many class indexes it probes.
    pub fn exact_lookup(&self, class: Option<ClassKey>, label: &str) -> Vec<EntityHit> {
        let normalized = NormalizedLabel::new(label);
        let mut hits: Vec<EntityHit> = Vec::new();
        for slice in self.class_slices(class) {
            let block = slice.index().exact_block_normalized(&normalized);
            hits.reserve_exact(block.len());
            for entry in block {
                let entity = EntityRef { class: slice.class(), id: entry.id as u32 };
                // Index ids are record positions; an id past the records
                // would be a build bug, and serving fewer hits beats a
                // panic on the read path. A record is in the block once
                // per label that normalises to the query.
                let Some(record) = slice.record(entity.id) else { continue };
                if hits.iter().all(|hit| hit.entity != entity) {
                    let label = record.canonical_label().to_string();
                    hits.push(EntityHit { entity, score: 1.0, label });
                }
            }
        }
        hits
    }

    /// Fuzzy top-k label lookup, in one class or (with `None`) across all
    /// classes. Within a class the ranking is exactly
    /// [`LabelIndex::lookup`]'s; across classes the class indexes are
    /// looked up one after another on the calling thread (a lookup takes
    /// microseconds, less than handing it to another thread would) and the
    /// per-class top-k lists are merged by descending score (ties:
    /// ascending record id, then [`CLASS_KEYS`] order) and cut to `k`.
    pub fn fuzzy_lookup(&self, class: Option<ClassKey>, label: &str, k: usize) -> Vec<EntityHit> {
        // A class returns at most `k` records, and no more than it holds.
        let most = self.class_slices(class).map(|slice| k.min(slice.len())).sum();
        let mut hits: Vec<EntityHit> = Vec::with_capacity(most);
        for slice in self.class_slices(class) {
            let index = slice.index();
            hits.extend(index.lookup(label, k).into_iter().map(|m| EntityHit {
                entity: EntityRef { class: slice.class(), id: m.id as u32 },
                score: m.score,
                label: index.resolve(m.normalized).to_string(),
            }));
        }
        // Per-class lists arrive sorted; the cross-class merge re-sorts by
        // the documented total order. `sort_by` is stable, so equal keys
        // keep CLASS_KEYS order.
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.entity.id.cmp(&b.entity.id))
        });
        hits.truncate(k);
        hits
    }

    /// One page of a class's entities, in cluster order.
    pub fn list_class(&self, class: ClassKey, offset: usize, limit: usize) -> ClassPage {
        let Some(slice) = self.class(class) else {
            return ClassPage { class, total: 0, offset, entities: Vec::new() };
        };
        let total = slice.len();
        let start = offset.min(total);
        let end = start.saturating_add(limit).min(total);
        let entities = (start..end)
            .map(|id| EntityRef { class, id: id as u32 })
            .collect();
        ClassPage { class, total, offset, entities }
    }

    /// Aggregate figures of the snapshot. O(classes): the per-class
    /// aggregates were computed once when each slice was built.
    pub fn stats(&self) -> SnapshotStats {
        let classes = self.classes().map(|slice| slice.stats().clone()).collect();
        SnapshotStats { version: self.version, tables: self.tables, rows: self.rows, classes }
    }

    /// The slices a lookup covers, in [`CLASS_KEYS`] order: one class's
    /// (if it has entities) or every non-empty one.
    fn class_slices(&self, class: Option<ClassKey>) -> impl Iterator<Item = &ClassSnapshot> {
        self.classes().filter(move |slice| class.is_none_or(|only| slice.class() == only))
    }
}

/// One page of [`KbSnapshot::list_class`] results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassPage {
    /// The listed class.
    pub class: ClassKey,
    /// Total entities of the class in this snapshot.
    pub total: usize,
    /// The requested offset (clamped only in `entities`, echoed verbatim).
    pub offset: usize,
    /// The page's entity references, in cluster order.
    pub entities: Vec<EntityRef>,
}
