//! The serve phase: incremental micro-batch ingestion over frozen models.
//!
//! [`IncrementalPipeline`] loads a trained [`crate::ModelArtifact`] once and
//! then ingests micro-batches of new web tables as they arrive, running
//! schema matching, clustering, fusion and new detection **only over the
//! delta** while scoring against all previously ingested state. Nothing is
//! retrained at serve time: matcher weights, the row/entity similarity
//! forests and every learned threshold come from the artifact.
//!
//! ## What is incremental about it
//!
//! * **Schema matching** is per table and runs only on the batch's tables.
//! * **Blocking / clustering** appends the batch's rows to a
//!   [`StreamingClusterer`], which scores each new row, on the calling
//!   thread, against the accumulated clusters blocking admits and either
//!   joins one or founds a new one. Previously assigned rows never move.
//! * **PHI statistics** grow via [`StreamingPhi`]: each new table's vector
//!   is frozen at ingest time.
//! * **Implicit attributes** are computed per new table against the frozen
//!   knowledge base and merged into the per-class state.
//! * **Fusion + new detection** re-run only for the clusters the batch
//!   created or extended; untouched clusters keep their entities and
//!   decisions.
//!
//! ## Equivalence contract
//!
//! Every per-row decision depends only on the rows ingested before it and
//! on frozen per-table statistics, never on batch boundaries. Tables are
//! processed in **arrival order** (the order they appear in each batch,
//! batches in ingest order — ids play no role), so ingesting a corpus as K
//! micro-batches yields **bit-identical** clusters, fused entities and
//! new/existing decisions to ingesting the concatenation in one batch —
//! which is exactly what [`crate::Pipeline::run_streaming`] does. The
//! repository test `tests/incremental_equivalence.rs` asserts this end to
//! end at multiple thread counts.
//!
//! ## Class sharding
//!
//! Each class's accumulated state — streaming clusterer, implicit
//! attributes, KBT cache **and its own interner** — is fully
//! self-contained (the KB label indexes are read-only data memoised on the
//! shared knowledge base), so ingest groups the class states into the shard
//! buckets of [`crate::ShardPlan`] and runs the buckets concurrently on
//! the work-stealing pool: once for matching statistics + delta
//! clustering, once for fusion + new detection. The shard grouping is
//! pure execution placement (shards share nothing mutable), and both
//! fan-outs merge their per-class results back in [`CLASS_KEYS`] order,
//! so every output — including the [`IngestReport`] — is bit-identical
//! at every (shard count × thread count).

use ltee_clustering::{
    build_row_contexts, ImplicitAttributes, RowContext, StreamingClusterer, StreamingPhi,
};
use ltee_fusion::Entity;
use ltee_intern::Interner;
use ltee_kb::{ClassKey, Footprint, HeapBytes, HeapSize, KnowledgeBase, CLASS_KEYS};
use ltee_matching::{match_corpus_and_candidates, CorpusMapping, RowCandidates};
use ltee_newdetect::NewDetectionResult;
use ltee_webtables::Corpus;

use rayon::prelude::*;

use crate::artifact::ModelArtifact;
use crate::pipeline::{
    fuse_and_detect, ClassOutput, PipelineConfig, PipelineError, PipelineOutput, TrainedModels,
};
use crate::shard::ShardPlan;

/// The rows of a batch's tables mapped to `class`, in the batch's **storage
/// order** (arrival order), not sorted by table id.
///
/// `CorpusMapping::class_rows` sorts by table id, which is fine for the
/// batch pipeline but would make the serve path's results depend on the id
/// scheme: a stream whose table ids are not monotonically increasing would
/// cluster in a different order than the same tables ingested in one batch.
/// Processing in arrival order makes the equivalence contract hold for any
/// ids — K micro-batches are bit-identical to one pass over the
/// concatenated corpus *in the same table order*.
pub(crate) fn class_rows_in_arrival_order(
    batch: &Corpus,
    mapping: &CorpusMapping,
    class: ClassKey,
) -> Vec<ltee_webtables::RowRef> {
    let mut rows = Vec::new();
    for table in batch.tables() {
        let Some(tm) = mapping.table(table.id) else { continue };
        if tm.class == Some(class) {
            rows.extend(table.row_refs());
        }
    }
    rows
}

/// Per-class accumulated serve state.
///
/// Self-contained by construction — every field (the interner included) is
/// touched only by this class's processing — which is what lets shard
/// buckets of states ingest concurrently without sharing anything mutable.
/// Nothing here is derived from the knowledge base alone: the label index
/// over the class's KB instances lives on the (frozen) knowledge base, see
/// [`KnowledgeBase::class_label_index`].
#[derive(Debug, Clone)]
pub(crate) struct ClassState {
    pub(crate) class: ClassKey,
    /// The class's interner: every label/token this class's stream mints
    /// is interned once, in arrival order, and all similarity scoring
    /// compares integers. Per-class (rather than one arena per pipeline)
    /// so shards never contend on a shared arena; no scoring path depends
    /// on raw `Sym` ordering across classes, so the split changes no
    /// output. Syms are never persisted — checkpoints store the strings in
    /// mint order and a restoring process re-interns from scratch.
    pub(crate) interner: Interner,
    pub(crate) clusterer: StreamingClusterer,
    pub(crate) phi: StreamingPhi,
    pub(crate) implicit: ImplicitAttributes,
    /// Accumulated per-column KBT scores (only populated under
    /// [`ltee_fusion::ScoringMethod::Kbt`] scoring), extended per batch so
    /// fusion never rescans the whole corpus.
    pub(crate) kbt: std::collections::HashMap<(ltee_webtables::TableId, usize), f64>,
    /// One fused entity per cluster (parallel to the clusterer's clusters).
    pub(crate) entities: Vec<Entity>,
    /// One detection result per cluster; `entity` is the cluster index.
    pub(crate) results: Vec<NewDetectionResult>,
}

impl ClassState {
    /// An empty state for `class` over `interner` (fresh for a new
    /// pipeline, pre-minted in stored order on checkpoint restore).
    pub(crate) fn new(class: ClassKey, interner: Interner, config: &PipelineConfig) -> Self {
        Self {
            class,
            interner,
            clusterer: StreamingClusterer::new(config.clustering.clone()),
            phi: StreamingPhi::new(),
            implicit: ImplicitAttributes::default(),
            kbt: std::collections::HashMap::new(),
            entities: Vec::new(),
            results: Vec::new(),
        }
    }

    /// Absorb the per-class corpus statistics of `tables` — per-table
    /// implicit attributes, KBT scores and frozen PHI vectors, all functions
    /// of the table and the frozen KB alone, so batch-invariant — and return
    /// the contexts of the class's rows in arrival order, ready to cluster
    /// (none: the state is untouched). Ingest calls this per micro-batch
    /// with the class matcher's row candidates, checkpoint restore once
    /// over the whole restored corpus without them (implicit attributes
    /// then look the row labels up again, with the same result); sharing
    /// the one copy is what keeps a restored state bit-identical.
    pub(crate) fn absorb_corpus_statistics(
        &mut self,
        tables: &Corpus,
        mapping: &CorpusMapping,
        candidates: Option<&RowCandidates>,
        kb: &KnowledgeBase,
        config: &PipelineConfig,
    ) -> Vec<RowContext> {
        let class = self.class;
        let rows = class_rows_in_arrival_order(tables, mapping, class);
        if rows.is_empty() {
            return Vec::new();
        }

        let contexts = build_row_contexts(tables, mapping, &rows, &mut self.interner);
        self.implicit.merge(match candidates {
            Some(candidates) => ImplicitAttributes::from_candidates(tables, mapping, kb, class, candidates),
            None => ImplicitAttributes::build(tables, mapping, kb, class, kb.class_label_index(class)),
        });
        if config.fusion.scoring == ltee_fusion::ScoringMethod::Kbt {
            let table_ids: Vec<_> = tables.tables().iter().map(|t| t.id).collect();
            self.kbt.extend(ltee_fusion::kbt_scores_for_tables(tables, mapping, kb, class, &table_ids));
        }
        // Freeze PHI vectors table by table, in arrival order (the same
        // order the rows cluster in).
        for table in tables.tables() {
            if mapping.table(table.id).map(|tm| tm.class) != Some(Some(class)) {
                continue;
            }
            let labels: Vec<String> = contexts
                .iter()
                .filter(|c| c.row.table == table.id)
                .filter(|c| !c.normalized_label.is_empty())
                .map(|c| c.normalized_label.clone())
                .collect();
            self.phi.add_table(table.id, &labels);
        }
        contexts
    }
}

/// Summary of one [`IncrementalPipeline::ingest`] call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Tables in the batch.
    pub tables: usize,
    /// Raw rows in the batch.
    pub rows: usize,
    /// Rows the schema matcher mapped to one of the target classes.
    pub mapped_rows: usize,
    /// Clusters created by this batch.
    pub new_clusters: usize,
    /// Pre-existing clusters extended by this batch.
    pub updated_clusters: usize,
    /// Entities currently classified as new that this batch created or
    /// re-classified.
    pub new_entities: usize,
    /// The classes whose clusters (and therefore entities/results) this
    /// batch created or changed, in [`CLASS_KEYS`] order. Snapshot
    /// publishers use this to rebuild only the class projections a batch
    /// actually touched and share the rest with the previous version.
    pub touched_classes: Vec<ClassKey>,
    /// Per entry of `touched_classes`, the cluster indexes (positions in
    /// [`IncrementalPipeline::class_entities`]) this batch created or
    /// extended, strictly ascending. Every other entity and result of the
    /// class is exactly what it was before the batch, so a publisher may
    /// keep its projection of it.
    pub touched_clusters: Vec<Vec<usize>>,
}

/// A serving pipeline: frozen trained models plus accumulated stream state.
///
/// See the [module docs](self) for the processing model and the equivalence
/// contract. Construct it from freshly trained models
/// ([`IncrementalPipeline::new`]) or from a persisted artifact
/// ([`IncrementalPipeline::from_artifact`]), then feed micro-batches to
/// [`IncrementalPipeline::ingest`] and read the cumulative result from
/// [`IncrementalPipeline::output`] at any point.
#[derive(Debug, Clone)]
pub struct IncrementalPipeline<'a> {
    pub(crate) kb: &'a KnowledgeBase,
    pub(crate) models: TrainedModels,
    pub(crate) config: PipelineConfig,
    /// All ingested tables.
    pub(crate) corpus: Corpus,
    /// Accumulated schema mapping of all ingested tables.
    pub(crate) mapping: CorpusMapping,
    /// Per-class accumulated state, in [`CLASS_KEYS`] order. Each state
    /// owns its own interner (see [`ClassState::interner`]), so shard
    /// buckets of states can ingest concurrently.
    pub(crate) states: Vec<ClassState>,
}

impl<'a> IncrementalPipeline<'a> {
    /// Create a serving pipeline over a knowledge base with trained models.
    pub fn new(kb: &'a KnowledgeBase, models: TrainedModels, config: PipelineConfig) -> Self {
        let states = CLASS_KEYS
            .iter()
            .map(|&class| ClassState::new(class, Interner::new(), &config))
            .collect();
        Self { kb, models, config, corpus: Corpus::new(), mapping: CorpusMapping::default(), states }
    }

    /// Create a serving pipeline from a persisted artifact, verifying that
    /// the artifact was trained under (the inference-relevant parts of)
    /// `config` — see [`crate::artifact::config_fingerprint`].
    pub fn from_artifact(
        kb: &'a KnowledgeBase,
        artifact: &ModelArtifact,
        config: PipelineConfig,
    ) -> Result<Self, ltee_codec::CodecError> {
        artifact.verify_config(&config)?;
        Ok(Self::new(kb, artifact.models.clone(), config))
    }

    /// The trained models being served.
    pub fn models(&self) -> &TrainedModels {
        &self.models
    }

    /// Number of tables ingested so far.
    pub fn ingested_tables(&self) -> usize {
        self.corpus.len()
    }

    /// Number of raw rows ingested so far.
    pub fn ingested_rows(&self) -> usize {
        self.corpus.total_rows()
    }

    /// The accumulated entities and detection results of one class, parallel
    /// vectors with one slot per cluster (`results[i].entity == i`).
    /// Returns `None` while the class has no clusters. This is the
    /// per-class projection surface snapshot publishers read after an
    /// ingest — borrowing, not cloning, so publication cost is driven by
    /// the projection the publisher builds, not by this accessor.
    pub fn class_entities(
        &self,
        class: ClassKey,
    ) -> Option<(&[Entity], &[NewDetectionResult])> {
        self.states
            .iter()
            .find(|s| s.class == class && !s.clusterer.is_empty())
            .map(|s| (s.entities.as_slice(), s.results.as_slice()))
    }

    /// Whether [`IncrementalPipeline::ingest`] would refuse `batch`, decided
    /// without changing anything: a batch that re-uses an already ingested
    /// table id is refused with [`PipelineError::DuplicateTable`], one
    /// holding a table that [`ltee_webtables::WebTable::validate`] refuses
    /// (the check every decoder of stored tables makes) with
    /// [`PipelineError::MalformedTable`], and one that would take the rows
    /// or tables ingested past `u32::MAX` with
    /// [`PipelineError::CapacityExceeded`]. These are the only refusals: a
    /// batch that passes is ingested.
    pub fn check(&self, batch: &Corpus) -> Result<(), PipelineError> {
        check_capacity(
            [self.ingested_rows(), self.ingested_tables()],
            [batch.total_rows(), batch.len()],
        )?;
        let mut batch_ids = std::collections::HashSet::new();
        for table in batch.tables() {
            // Reject ids already ingested AND ids duplicated within the
            // batch itself — either would corrupt the accumulated corpus
            // lookup and double-count the PHI statistics.
            if self.corpus.table(table.id).is_some() || !batch_ids.insert(table.id) {
                return Err(PipelineError::DuplicateTable(table.id));
            }
            table
                .validate()
                .map_err(|reason| PipelineError::MalformedTable { table: table.id, reason })?;
        }
        Ok(())
    }

    /// Ingest one micro-batch of new tables.
    ///
    /// An empty batch is a no-op and returns a zeroed report. A batch
    /// [`IncrementalPipeline::check`] refuses is refused before any state
    /// changes.
    pub fn ingest(&mut self, batch: &Corpus) -> Result<IngestReport, PipelineError> {
        if batch.is_empty() {
            return Ok(IngestReport::default());
        }
        self.check(batch)?;
        self.config.parallelism.install();
        let num_shards = self.config.shards.resolve();
        let num_states = self.states.len();

        let mut report = IngestReport {
            tables: batch.len(),
            rows: batch.total_rows(),
            ..IngestReport::default()
        };

        // Schema matching over the delta only. The serve profile runs the
        // first-iteration matchers: the duplicate-based and corpus-level
        // matchers need full-corpus feedback, which is a batch-mode
        // (training/evaluation) feature.
        let (batch_mapping, batch_candidates) = match_corpus_and_candidates(
            batch,
            self.kb,
            &self.models.matcher_weights,
            &self.config.schema,
            None,
        );

        // Phase 1 — per-class matching statistics + delta clustering,
        // shard-concurrent. Each class state (its interner included) is
        // self-contained, so the buckets touch disjoint mutable state and
        // the grouping is pure execution placement.
        let kb = self.kb;
        let models = &self.models;
        let config = &self.config;
        let phase1: Vec<Vec<(usize, ClassDelta)>> =
            shard_buckets(&mut self.states, num_shards, |_| true)
                .into_par_iter()
                .map(|bucket| {
                    bucket
                        .into_iter()
                        .map(|(idx, state)| {
                            (
                                idx,
                                ingest_class_delta(
                                    state,
                                    batch,
                                    &batch_mapping,
                                    &batch_candidates,
                                    kb,
                                    models,
                                    config,
                                ),
                            )
                        })
                        .collect()
                })
                .collect();

        // Deterministic merge: fold the per-class deltas into the report in
        // state ([`CLASS_KEYS`]) order, independent of which shard produced
        // them (the counters are sums either way; the order rule keeps the
        // merge contract uniform with `touched_classes` below).
        let mut touched_per_state: Vec<Vec<usize>> = vec![Vec::new(); num_states];
        let mut ordered: Vec<Option<ClassDelta>> = (0..num_states).map(|_| None).collect();
        for (idx, delta) in phase1.into_iter().flatten() {
            ordered[idx] = Some(delta);
        }
        for (idx, delta) in ordered.into_iter().enumerate() {
            let Some(delta) = delta else { continue };
            report.mapped_rows += delta.mapped_rows;
            report.new_clusters += delta.new_clusters;
            report.updated_clusters += delta.updated_clusters;
            touched_per_state[idx] = delta.touched;
        }

        // The accumulated corpus and mapping must include the batch before
        // fusion (fused facts and entity bags read any of a cluster's rows,
        // including the ones just added).
        for table in batch.tables() {
            self.corpus.push(table.clone());
        }
        self.mapping.merge(batch_mapping);

        // Phase 2 — re-fuse and re-classify only the touched clusters,
        // again shard-concurrent over disjoint class states (fusion reads
        // the shared corpus/mapping immutably and writes only its own
        // state's entities/results/interner).
        let corpus = &self.corpus;
        let mapping = &self.mapping;
        let touched_ref = &touched_per_state;
        let phase2: Vec<Vec<(usize, usize)>> =
            shard_buckets(&mut self.states, num_shards, |idx| !touched_ref[idx].is_empty())
                .into_par_iter()
                .map(|bucket| {
                    bucket
                        .into_iter()
                        .map(|(idx, state)| {
                            let new_entities = refresh_touched_clusters(
                                state,
                                &touched_ref[idx],
                                corpus,
                                mapping,
                                kb,
                                models,
                                config,
                            );
                            (idx, new_entities)
                        })
                        .collect()
                })
                .collect();

        // Merge in state order again: `touched_classes`, their cluster
        // lists and the new-entities counter come out identical at every
        // shard count.
        let mut new_per_state: Vec<Option<usize>> = vec![None; num_states];
        for (idx, new_entities) in phase2.into_iter().flatten() {
            new_per_state[idx] = Some(new_entities);
        }
        for ((state, new_entities), touched) in
            self.states.iter().zip(new_per_state).zip(touched_per_state)
        {
            if let Some(new_entities) = new_entities {
                report.touched_classes.push(state.class);
                report.touched_clusters.push(touched);
                report.new_entities += new_entities;
            }
        }

        Ok(report)
    }

    /// The heap this pipeline holds (not the borrowed knowledge base): the
    /// `models`, the ingested tables with their mapping, and per class each
    /// part of its state; `stream.bags` counts terms, `stream.phi` pairs,
    /// and `stream.rows` holds the row contexts with their buffer.
    pub fn footprint(&self) -> Footprint {
        let mut footprint = Footprint::default();
        footprint.add("models", None, self.models.heap_bytes(), 1);
        let mut unclassed =
            self.corpus.heap_bytes() + self.mapping.heap_bytes() + HeapBytes::buffer::<ClassState>(self.states.capacity());
        for table in self.corpus.tables() {
            let mapping = self.mapping.table(table.id);
            let heap = table.heap_bytes() + mapping.map_or(HeapBytes::ZERO, HeapSize::heap_bytes);
            footprint.add("stream.tables", mapping.and_then(|m| m.class), heap, 1);
            unclassed = unclassed - heap;
        }
        footprint.add("stream.tables", None, unclassed, 0);
        for state in &self.states {
            let (class, contexts) = (Some(state.class), state.clusterer.contexts());
            let bags: HeapBytes = contexts.iter().map(|c| c.bow.heap_bytes()).sum();
            let rows = state.clusterer.contexts_heap() - bags;
            let entities = state.entities.heap_bytes() + HeapBytes::buffer::<NewDetectionResult>(state.results.capacity());
            footprint.add("stream.interner", class, state.interner.heap_bytes(), state.interner.len());
            footprint.add("stream.rows", class, rows, contexts.len());
            footprint.add("stream.bags", class, bags, contexts.iter().map(|c| c.bow.len()).sum());
            footprint.add("stream.clusters", class, state.clusterer.heap_bytes() - rows - bags, state.clusterer.len());
            footprint.add("stream.phi", class, state.phi.heap_bytes(), state.phi.pair_count());
            footprint.add("stream.implicit", class, state.implicit.heap_bytes(), 0);
            footprint.add("stream.kbt", class, state.kbt.heap_bytes(), state.kbt.len());
            footprint.add("stream.entities", class, entities, state.entities.len());
        }
        footprint
    }

    /// The number of shard buckets the next ingest would use (resolved from
    /// the config's [`ShardPlan`] right now).
    pub fn shard_count(&self) -> usize {
        self.config.shards.resolve()
    }

    /// Snapshot of the cumulative pipeline output over everything ingested
    /// so far. The shape matches [`crate::Pipeline::run`]'s output: one
    /// [`ClassOutput`] per class with rows, parallel entity and result
    /// vectors, plus the accumulated schema mapping.
    pub fn output(&self) -> PipelineOutput {
        let classes = self
            .states
            .iter()
            .filter(|s| !s.clusterer.is_empty())
            .map(|s| ClassOutput {
                class: s.class,
                clusters: s.clusterer.all_row_refs(),
                entities: s.entities.clone(),
                results: s.results.clone(),
            })
            .collect();
        PipelineOutput { mapping: self.mapping.clone(), classes }
    }
}

/// What phase 1 of an ingest produced for one class; folded into the
/// [`IngestReport`] in state order after the shard fan-out joins.
#[derive(Default)]
struct ClassDelta {
    mapped_rows: usize,
    new_clusters: usize,
    updated_clusters: usize,
    /// Cluster indexes the batch created or extended.
    touched: Vec<usize>,
}

/// Group mutable references to the class states into `num_shards` disjoint
/// shard buckets ([`ShardPlan::shard_of`]), tagging each state with its
/// index so the caller can merge results back in state order. States for
/// which `keep` returns `false` stay out of every bucket.
fn shard_buckets<'s>(
    states: &'s mut [ClassState],
    num_shards: usize,
    keep: impl Fn(usize) -> bool,
) -> Vec<Vec<(usize, &'s mut ClassState)>> {
    let mut buckets: Vec<Vec<(usize, &'s mut ClassState)>> =
        (0..num_shards.max(1)).map(|_| Vec::new()).collect();
    for (idx, state) in states.iter_mut().enumerate() {
        if keep(idx) {
            buckets[ShardPlan::shard_of(state.class, num_shards)].push((idx, state));
        }
    }
    buckets
}

/// Rows and tables a pipeline ingests at most: the stream state indexes
/// clusters by `u32` and counts label occurrences in `u32`.
const CAPACITY: usize = u32::MAX as usize;

/// Refuse a batch of `batch` rows and tables on top of the `ingested` ones
/// if either count would pass [`CAPACITY`].
pub(crate) fn check_capacity(ingested: [usize; 2], batch: [usize; 2]) -> Result<(), PipelineError> {
    for (what, ingested, batch) in [("rows", ingested[0], batch[0]), ("tables", ingested[1], batch[1])] {
        if ingested.saturating_add(batch) > CAPACITY {
            return Err(PipelineError::CapacityExceeded { what, ingested, batch });
        }
    }
    Ok(())
}

/// Phase 1 for one class: corpus statistics for the delta
/// ([`ClassState::absorb_corpus_statistics`]), then delta clustering
/// against all accumulated state. Mutates only `state`.
fn ingest_class_delta(
    state: &mut ClassState,
    batch: &Corpus,
    batch_mapping: &CorpusMapping,
    batch_candidates: &RowCandidates,
    kb: &KnowledgeBase,
    models: &TrainedModels,
    config: &PipelineConfig,
) -> ClassDelta {
    let class = state.class;
    let contexts = state.absorb_corpus_statistics(batch, batch_mapping, Some(batch_candidates), kb, config);
    if contexts.is_empty() {
        return ClassDelta::default();
    }
    let mapped_rows = contexts.len();

    // Delta clustering against all accumulated state.
    let touched = state.clusterer.ingest(
        contexts,
        &models.row_model,
        state.phi.vectors(),
        &state.implicit,
        &state.interner,
    );
    let previously_known = state.entities.len();
    let new_clusters = touched.iter().filter(|&&c| c >= previously_known).count();
    let updated_clusters = touched.iter().filter(|&&c| c < previously_known).count();

    if state.entities.len() < state.clusterer.len() {
        // Placeholders keep `entities`/`results` parallel to the cluster
        // list until phase 2 overwrites them.
        state.entities.resize_with(state.clusterer.len(), || Entity {
            class,
            rows: Vec::new(),
            labels: Vec::new(),
            facts: Vec::new(),
        });
        state.results.resize_with(state.clusterer.len(), || NewDetectionResult {
            entity: 0,
            outcome: ltee_newdetect::NewDetectionOutcome::New,
            best_score: 0.0,
            candidate_count: 0,
        });
    }

    ClassDelta { mapped_rows, new_clusters, updated_clusters, touched }
}

/// Phase 2 for one class: fuse and re-classify the clusters the batch
/// touched, writing the refreshed entities/results into their slots.
/// Returns how many touched clusters now classify as new. Reads the
/// accumulated corpus/mapping immutably; mutates only `state`.
#[allow(clippy::too_many_arguments)]
fn refresh_touched_clusters(
    state: &mut ClassState,
    touched: &[usize],
    corpus: &Corpus,
    mapping: &CorpusMapping,
    kb: &KnowledgeBase,
    models: &TrainedModels,
    config: &PipelineConfig,
) -> usize {
    let class = state.class;
    let touched_clusters: Vec<Vec<ltee_webtables::RowRef>> =
        touched.iter().map(|&c| state.clusterer.cluster_row_refs(c)).collect();
    let (entities, results) = fuse_and_detect(
        &touched_clusters,
        corpus,
        mapping,
        kb,
        class,
        &state.implicit,
        kb.class_label_index(class),
        models,
        config,
        Some(&state.kbt),
        &mut state.interner,
    );
    let mut new_entities = 0;
    for ((cluster_idx, entity), mut result) in touched.iter().copied().zip(entities).zip(results) {
        result.entity = cluster_idx;
        if result.outcome.is_new() {
            new_entities += 1;
        }
        state.entities[cluster_idx] = entity;
        state.results[cluster_idx] = result;
    }
    new_entities
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_batch_past_the_capacity_is_refused() {
        assert_eq!(check_capacity([CAPACITY - 5, 7], [5, 1]), Ok(()));
        assert_eq!(
            check_capacity([CAPACITY - 5, 7], [6, 1]),
            Err(PipelineError::CapacityExceeded { what: "rows", ingested: CAPACITY - 5, batch: 6 })
        );
        assert_eq!(
            check_capacity([7, CAPACITY], [1, 1]),
            Err(PipelineError::CapacityExceeded { what: "tables", ingested: CAPACITY, batch: 1 })
        );
        // Sums past `usize::MAX` are refused, not wrapped.
        assert!(check_capacity([usize::MAX, 0], [usize::MAX, 0]).is_err());
    }
}
