//! # ltee-serve
//!
//! The consumption surface of the LTEE reproduction: a snapshot-isolated,
//! read-concurrent query layer over the incremental serve pipeline.
//!
//! The papers this repository reproduces (and the T2K / WDC table-matching
//! line of work around them) all assume the extended knowledge base is
//! *queryable* — an endpoint applications hit for lookups — while new web
//! tables keep arriving. This crate closes that gap:
//!
//! * [`ServePipeline`] wraps an [`IncrementalPipeline`]: every ingested
//!   micro-batch publishes a new immutable [`KbSnapshot`] version.
//! * [`SnapshotReader`] handles are cheap to clone and `Send + Sync +
//!   'static`. [`SnapshotReader::snapshot`] never observes a partially
//!   ingested batch: each returned `Arc<KbSnapshot>` is one consistent KB
//!   version, pinned for as long as the reader holds it.
//! * Superseded versions are **reclaimed**: resident memory is the current
//!   version plus whatever versions readers still hold, under indefinite
//!   ingest, instead of growing with version count. A reader that wants
//!   repeatable reads keeps the `Arc<KbSnapshot>` it loaded; once the last
//!   holder lets go, the writer frees the version on its next publish or
//!   [`ServePipeline::reclaim`].
//! * Snapshots answer exact and fuzzy label lookups (over the interned,
//!   integer-keyed postings of each class's sealed
//!   [`ltee_index::LabelIndex`]), entity
//!   fetches with fused facts plus full table provenance, per-class
//!   listing/paging, aggregate stats — singly or as a batch fanned out on
//!   the work-stealing pool ([`KbSnapshot::execute_batch`]).
//!
//! ## Consistency contract
//!
//! * **Versioned**: versions start at 0 (empty) and increase by exactly 1
//!   per published ingest.
//! * **Snapshot isolation**: every query (and every batch of queries) runs
//!   against exactly one version; concurrent ingest affects only *later*
//!   `snapshot()` calls.
//! * **What a reader waits for**: acquiring a snapshot is a read lock and
//!   a reference-count increment. It may wait for the writer's pointer
//!   replacement, never for ingest work, encoding or a free.
//! * **Bounded retention**: a version a reader holds an `Arc` to lives as
//!   long as that `Arc`; a superseded version nobody holds is freed by the
//!   writer's next publish or reclaim, so resident memory is the current
//!   version plus the held ones, not O(versions × class size).
//! * **Determinism**: querying a version returns bit-identical results no
//!   matter how many readers run concurrently or how the pool is sized —
//!   snapshots are immutable and batch collection is input-ordered.
//!
//! ```no_run
//! use ltee_core::prelude::*;
//! use ltee_serve::{Query, ServePipeline};
//!
//! # let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 7));
//! # let corpus = generate_corpus(&world, &CorpusConfig::tiny());
//! # let golds: Vec<GoldStandard> =
//! #     CLASS_KEYS.iter().map(|&c| GoldStandard::build(&world, &corpus, c)).collect();
//! let config = PipelineConfig::fast();
//! let models = train_models(&corpus, world.kb(), &golds, &config).expect("trainable corpus");
//! let mut serving = ServePipeline::new(world.kb(), models, config);
//!
//! // Reader threads query a consistent version while batches ingest.
//! let reader = serving.reader();
//! std::thread::spawn(move || {
//!     let snap = reader.snapshot(); // one pinned version
//!     let hits = snap.fuzzy_lookup(None, "yellow submarine", 5);
//!     println!("v{}: {} hits", snap.version(), hits.len());
//! });
//! for batch in corpus.split_into_batches(4) {
//!     serving.ingest(&batch).expect("fresh table ids");
//! }
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod cell;
#[cfg(test)]
mod delta_tests;
pub mod durable;
pub mod query;
pub mod snapshot;

pub use cell::SnapshotCell;
pub use durable::{CheckpointPolicy, DurableServePipeline, RecoveryReport};
pub use query::{EntityHit, EntityRef, Query, QueryOutput};
pub use snapshot::{
    ClassPage, ClassSnapshot, ClassStats, EntityRecord, KbSnapshot, LinkOutcome, SnapshotStats,
};

use std::sync::Arc;

use ltee_core::{
    CodecError, IncrementalPipeline, IngestReport, ModelArtifact, PipelineConfig, PipelineError,
    TrainedModels,
};
use ltee_kb::{ClassKey, Footprint, HeapBytes, KnowledgeBase, CLASS_KEYS};
use ltee_webtables::Corpus;
use rayon::prelude::*;

/// The [`CLASS_KEYS`] slot a class's projection lives in.
fn class_slot(class: ClassKey) -> Option<usize> {
    CLASS_KEYS.iter().position(|&c| c == class)
}

/// The serving end of the train-once / serve-many split: an
/// [`IncrementalPipeline`] that publishes an immutable [`KbSnapshot`]
/// version after every ingested micro-batch.
///
/// Ingest is exclusive (`&mut self`); reads go through [`SnapshotReader`]
/// handles, which are independent of the pipeline's lifetime and can be
/// handed to any number of threads. Publication shares every class the
/// batch did not touch ([`IngestReport::touched_classes`]) with the
/// previous version, and inside a touched class every record whose cluster
/// the batch did not touch ([`IngestReport::touched_clusters`]); the
/// touched class's label index is rebuilt, so a publish costs O(touched
/// clusters) in records and O(touched classes' size) in index.
#[derive(Debug)]
pub struct ServePipeline<'a> {
    kb: &'a KnowledgeBase,
    pipeline: IncrementalPipeline<'a>,
    cell: Arc<SnapshotCell>,
    /// Per-[`CLASS_KEYS`] slot cache of the latest class projections;
    /// untouched slots carry over into the next published version.
    class_cache: Vec<Option<Arc<ClassSnapshot>>>,
}

impl<'a> ServePipeline<'a> {
    /// Create a serving pipeline from freshly trained models. Publishes
    /// the empty version-0 snapshot immediately, so readers acquired
    /// before the first ingest see a valid (empty) KB.
    pub fn new(kb: &'a KnowledgeBase, models: TrainedModels, config: PipelineConfig) -> Self {
        Self {
            kb,
            pipeline: IncrementalPipeline::new(kb, models, config),
            cell: Arc::new(SnapshotCell::new(Arc::new(KbSnapshot::empty()))),
            class_cache: vec![None; CLASS_KEYS.len()],
        }
    }

    /// Adopt an already-populated pipeline (a checkpoint restore) and
    /// publish its accumulated state as version `version` — the number of
    /// non-empty batches the pipeline has absorbed. Readers acquired after
    /// this see the full recovered KB immediately; versions before
    /// `version` predate this process.
    pub(crate) fn from_pipeline(
        kb: &'a KnowledgeBase,
        pipeline: IncrementalPipeline<'a>,
        version: u64,
    ) -> Self {
        // Every populated class builds in full, concurrently; the pool
        // collects in input order, so slot `i` is `CLASS_KEYS[i]`'s.
        let class_cache: Vec<Option<Arc<ClassSnapshot>>> = CLASS_KEYS
            .par_iter()
            .map(|&class| {
                let (entities, results) = pipeline.class_entities(class)?;
                Some(Arc::new(ClassSnapshot::build(kb, class, entities, results)))
            })
            .collect();
        let initial = Arc::new(KbSnapshot::assemble(
            version,
            pipeline.ingested_tables(),
            pipeline.ingested_rows(),
            class_cache.clone(),
        ));
        Self { kb, pipeline, cell: Arc::new(SnapshotCell::new(initial)), class_cache }
    }

    /// Create a serving pipeline from a persisted artifact (verifying its
    /// config fingerprint, like [`IncrementalPipeline::from_artifact`]).
    pub fn from_artifact(
        kb: &'a KnowledgeBase,
        artifact: &ModelArtifact,
        config: PipelineConfig,
    ) -> Result<Self, CodecError> {
        artifact.verify_config(&config)?;
        Ok(Self::new(kb, artifact.models.clone(), config))
    }

    /// Ingest one micro-batch and publish the resulting snapshot version.
    ///
    /// Exactly the semantics (and errors) of
    /// [`IncrementalPipeline::ingest`]; on success with a non-empty batch,
    /// a snapshot with version `self.version() + 1` becomes visible to all
    /// readers atomically. An empty batch stays a no-op and publishes
    /// nothing; a rejected batch (duplicate table id) changes nothing.
    pub fn ingest(&mut self, batch: &Corpus) -> Result<IngestReport, PipelineError> {
        let report = self.pipeline.ingest(batch)?;
        if report.tables == 0 {
            return Ok(report);
        }
        // Re-project only what the batch touched, each touched class on
        // top of its previous slice, concurrently — the per-class builds
        // are independent and collected in input order, so the published
        // snapshot is identical at every pool size.
        let (kb, pipeline, cache) = (self.kb, &self.pipeline, &self.class_cache);
        let touched: Vec<(ClassKey, &Vec<usize>)> =
            report.touched_classes.iter().copied().zip(&report.touched_clusters).collect();
        let slices: Vec<(usize, Arc<ClassSnapshot>)> = touched
            .par_iter()
            .filter_map(|&(class, clusters)| {
                let slot = class_slot(class)?;
                let (entities, results) = pipeline.class_entities(class)?;
                let previous = cache[slot].as_deref();
                let slice =
                    ClassSnapshot::build_delta(previous, clusters, kb, class, entities, results);
                Some((slot, Arc::new(slice)))
            })
            .collect();
        for (slot, slice) in slices {
            self.class_cache[slot] = Some(slice);
        }
        // The version is derived from the published sequence (not tracked
        // separately), so the writer's and the readers' view of "latest"
        // can never drift.
        self.cell.publish(Arc::new(KbSnapshot::assemble(
            self.cell.version() + 1,
            self.pipeline.ingested_tables(),
            self.pipeline.ingested_rows(),
            self.class_cache.clone(),
        )));
        Ok(report)
    }

    /// A new reader handle. Handles are cheap, `Send + Sync + 'static`,
    /// and remain valid (serving the latest version) even while ingests
    /// run.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader { cell: Arc::clone(&self.cell) }
    }

    /// The current snapshot (what [`SnapshotReader::snapshot`] returns).
    pub fn snapshot(&self) -> Arc<KbSnapshot> {
        self.cell.load()
    }

    /// The latest published version number.
    pub fn version(&self) -> u64 {
        self.cell.version()
    }

    /// Free the superseded versions no reader holds any more, without
    /// publishing. Reclamation already runs on every publish; this exists
    /// for quiescent pipelines (ingest stopped, readers done with their
    /// old snapshots) that want them freed now — e.g. before measuring
    /// resident memory.
    pub fn reclaim(&mut self) {
        self.cell.reclaim();
    }

    /// Snapshot versions currently resident (the current one plus the
    /// superseded ones not freed yet); see
    /// [`SnapshotCell::versions_retained`].
    pub fn versions_retained(&self) -> usize {
        self.cell.versions_retained()
    }

    /// Snapshot versions freed by reclamation so far.
    pub fn versions_reclaimed(&self) -> u64 {
        self.cell.versions_reclaimed()
    }

    /// The heap this process holds, by component and class: the knowledge
    /// base, the pipeline and the resident snapshot versions, current and
    /// reader-held, each shared slice, index and record counted once.
    pub fn footprint(&self) -> Footprint {
        let mut footprint = self.kb.footprint();
        footprint.extend(self.pipeline.footprint());
        let (versions, limbo) = self.cell.resident();
        footprint.extend(snapshot::versions_footprint(&versions));
        let own = HeapBytes::arc_box::<SnapshotCell>()
            + limbo
            + HeapBytes::buffer::<Option<Arc<ClassSnapshot>>>(self.class_cache.capacity());
        footprint.add("snapshot.versions", None, own, 0);
        footprint
    }

    /// The wrapped incremental pipeline (for ingest-side diagnostics).
    pub fn pipeline(&self) -> &IncrementalPipeline<'a> {
        &self.pipeline
    }
}

/// A read handle onto the published snapshot sequence. The snapshot it
/// returns stays fully consistent regardless of concurrent ingests and
/// reclamation, which only ever free versions no caller still holds.
#[derive(Clone, Debug)]
pub struct SnapshotReader {
    cell: Arc<SnapshotCell>,
}

impl SnapshotReader {
    /// The latest published snapshot (see [`SnapshotCell::load`]).
    pub fn snapshot(&self) -> Arc<KbSnapshot> {
        self.cell.load()
    }

    /// The latest published version number (lock-free).
    pub fn version(&self) -> u64 {
        self.cell.version()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltee_fusion::Entity;
    use ltee_kb::ClassKey;
    use ltee_newdetect::{NewDetectionOutcome, NewDetectionResult};
    use ltee_types::Value;
    use ltee_webtables::{RowRef, TableId};

    /// A KB with one Song instance, plus a two-entity Song class snapshot:
    /// record 0 ("Yellow Submarine") linked to the instance, record 1
    /// ("Octopus Garden", homonym label "Octopus's Garden") new.
    fn sample_snapshot() -> KbSnapshot {
        let mut kb = KnowledgeBase::new();
        kb.add_class(ClassKey::Song);
        let linked = kb.add_instance(
            ClassKey::Song,
            vec!["Yellow Submarine".into()],
            String::new(),
            500,
            vec![],
        );
        let entities = vec![
            Entity {
                class: ClassKey::Song,
                rows: vec![RowRef::new(TableId(3), 0), RowRef::new(TableId(1), 2)],
                labels: vec!["Yellow Submarine".into()],
                facts: vec![("runtime", Value::Quantity(159.0), 2.0)],
            },
            Entity {
                class: ClassKey::Song,
                rows: vec![RowRef::new(TableId(1), 4)],
                labels: vec!["Octopus Garden".into(), "Octopus's Garden".into()],
                facts: vec![],
            },
        ];
        let results = vec![
            NewDetectionResult {
                entity: 0,
                outcome: NewDetectionOutcome::Existing(linked),
                best_score: 0.9,
                candidate_count: 3,
            },
            NewDetectionResult {
                entity: 1,
                outcome: NewDetectionOutcome::New,
                best_score: 0.1,
                candidate_count: 1,
            },
        ];
        let slice = Arc::new(ClassSnapshot::build(&kb, ClassKey::Song, &entities, &results));
        let mut classes = vec![None; CLASS_KEYS.len()];
        let slot = class_slot(ClassKey::Song).unwrap();
        classes[slot] = Some(slice);
        KbSnapshot::assemble(1, 2, 3, classes)
    }

    #[test]
    fn records_project_provenance_and_links() {
        let snap = sample_snapshot();
        let song = snap.class(ClassKey::Song).expect("song slice");
        assert_eq!(song.len(), 2);
        let rec = song.record(0).unwrap();
        assert_eq!(rec.tables, vec![TableId(1), TableId(3)]);
        assert_eq!(rec.fact("runtime"), Some(&Value::Quantity(159.0)));
        match &rec.outcome {
            LinkOutcome::Existing { label, .. } => assert_eq!(label, "Yellow Submarine"),
            other => panic!("expected a link, got {other:?}"),
        }
        assert!(song.record(1).unwrap().outcome.is_new());
        assert!(song.record(2).is_none());
        assert!(snap.class(ClassKey::Settlement).is_none());
    }

    #[test]
    fn lookups_hit_all_record_labels() {
        let snap = sample_snapshot();
        let exact = snap.exact_lookup(Some(ClassKey::Song), "yellow SUBMARINE");
        assert_eq!(exact.len(), 1);
        assert_eq!(exact[0].entity, EntityRef { class: ClassKey::Song, id: 0 });
        assert_eq!(exact[0].score, 1.0);
        // The alternative label retrieves the same record as the canonical.
        let alt = snap.exact_lookup(None, "octopus's garden");
        assert_eq!(alt.len(), 1);
        assert_eq!(alt[0].entity.id, 1);
        assert_eq!(alt[0].label, "Octopus Garden", "exact hits surface the canonical label");

        let fuzzy = snap.fuzzy_lookup(None, "yelow submarine", 5);
        assert_eq!(fuzzy[0].entity.id, 0, "typo should still rank the submarine first");
        assert!(fuzzy[0].score < 1.0);
        assert!(snap.fuzzy_lookup(None, "zzz qqq", 5).is_empty());
    }

    #[test]
    fn paging_clamps_to_the_class() {
        let snap = sample_snapshot();
        let page = snap.list_class(ClassKey::Song, 0, 10);
        assert_eq!(page.total, 2);
        assert_eq!(page.entities.len(), 2);
        let second = snap.list_class(ClassKey::Song, 1, 10);
        assert_eq!(second.entities, vec![EntityRef { class: ClassKey::Song, id: 1 }]);
        assert!(snap.list_class(ClassKey::Song, 9, 10).entities.is_empty());
        assert_eq!(snap.list_class(ClassKey::Settlement, 0, 10).total, 0);
    }

    #[test]
    fn stats_count_new_and_linked() {
        let snap = sample_snapshot();
        let stats = snap.stats();
        assert_eq!(stats.version, 1);
        assert_eq!((stats.tables, stats.rows), (2, 3));
        assert_eq!(stats.classes.len(), 1);
        let song = &stats.classes[0];
        assert_eq!((song.entities, song.new_entities, song.linked_entities), (2, 1, 1));
        assert_eq!(song.rows, 3);
    }

    #[test]
    fn batch_execution_matches_sequential() {
        let snap = sample_snapshot();
        let queries = vec![
            Query::Exact { class: None, label: "Yellow Submarine".into() },
            Query::Fuzzy { class: Some(ClassKey::Song), label: "octopus".into(), k: 3 },
            Query::Entity { entity: EntityRef { class: ClassKey::Song, id: 1 } },
            Query::Entity { entity: EntityRef { class: ClassKey::Song, id: 99 } },
            Query::List { class: ClassKey::Song, offset: 0, limit: 1 },
            Query::Stats,
        ];
        let sequential: Vec<QueryOutput> = queries.iter().map(|q| snap.execute(q)).collect();
        let batched = snap.execute_batch(&queries);
        assert_eq!(sequential, batched);
        assert!(matches!(&batched[2], QueryOutput::Entity(Some(r)) if r.outcome.is_new()));
        assert!(matches!(&batched[3], QueryOutput::Entity(None)));
    }
}
