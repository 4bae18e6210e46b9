//! The shadow stage driver of the traced run.
//!
//! `IncrementalPipeline::ingest` exposes no stage boundaries, so the
//! traced run feeds every batch — after the real durable ingest — through
//! this second pipeline, assembled from the layers' public entry points in
//! the order the real one calls them, with a span around each call. It is
//! trusted only because its output is checked: at the end its entities and
//! detection results must equal `IncrementalPipeline::class_entities` for
//! every class, and its projected records must equal what the snapshot
//! serves, else the run fails.

use std::collections::HashMap;

use ltee_clustering::{build_row_contexts, ImplicitAttributes, StreamingClusterer, StreamingPhi};
use ltee_core::{IncrementalPipeline, PipelineConfig, TrainedModels};
use ltee_fusion::{create_entities_with_scores, kbt_scores_for_tables, Entity, ScoringMethod};
use ltee_index::LabelIndex;
use ltee_intern::Interner;
use ltee_kb::{ClassKey, KnowledgeBase, CLASS_KEYS};
use ltee_matching::{match_corpus, CorpusMapping};
use ltee_newdetect::metrics::EntityContext;
use ltee_newdetect::{detect_new, NewDetectionOutcome, NewDetectionResult};
use ltee_serve::{EntityRecord, KbSnapshot, LinkOutcome};
use ltee_webtables::{Corpus, RowRef, TableId};

use crate::trace::Recorder;

/// One class's accumulated state (the public-API twin of the pipeline's
/// private per-class state).
struct ClassState {
    class: ClassKey,
    interner: Interner,
    kb_index: LabelIndex,
    clusterer: StreamingClusterer,
    phi: StreamingPhi,
    implicit: ImplicitAttributes,
    kbt: HashMap<(TableId, usize), f64>,
    entities: Vec<Entity>,
    results: Vec<NewDetectionResult>,
    /// The projection `ClassSnapshot::build` would serve, rebuilt whenever
    /// a batch touches the class.
    records: Vec<EntityRecord>,
}

/// Work counts of the shadow stages, summed over the run.
#[derive(Debug, Clone, Default)]
pub struct StageCounts {
    /// Tables matched.
    pub tables: usize,
    /// Raw rows seen.
    pub rows: usize,
    /// Rows the matcher mapped to a target class (and clustering took in).
    pub mapped_rows: usize,
    /// Clusters founded.
    pub new_clusters: usize,
    /// Existing clusters extended.
    pub updated_clusters: usize,
    /// Clusters fused (one entity each) and then classified.
    pub clusters_fused: usize,
    /// Of those, how many were classified new.
    pub classified_new: usize,
}

/// Per-batch figures the layer metrics are derived from.
#[derive(Debug, Clone, Default)]
pub struct BatchStages {
    /// Seconds in `StreamingClusterer::ingest`.
    pub clustering_s: f64,
    /// Rows clustered.
    pub mapped_rows: usize,
    /// Seconds projecting the touched classes for publication.
    pub publish_s: f64,
    /// Entities in the classes the batch touched (what publication rebuilds).
    pub entities_in_touched: usize,
}

/// The shadow pipeline. See the module docs.
pub struct Shadow<'a> {
    kb: &'a KnowledgeBase,
    models: &'a TrainedModels,
    config: &'a PipelineConfig,
    corpus: Corpus,
    mapping: CorpusMapping,
    states: Vec<ClassState>,
    /// Work counts so far.
    pub counts: StageCounts,
    /// One entry per ingested batch.
    pub batches: Vec<BatchStages>,
}

impl<'a> Shadow<'a> {
    /// An empty shadow pipeline over `kb`.
    pub fn new(
        kb: &'a KnowledgeBase,
        models: &'a TrainedModels,
        config: &'a PipelineConfig,
    ) -> Self {
        let states = CLASS_KEYS
            .iter()
            .map(|&class| ClassState {
                class,
                interner: Interner::new(),
                kb_index: kb.label_index(class),
                clusterer: StreamingClusterer::new(config.clustering.clone()),
                phi: StreamingPhi::new(),
                implicit: ImplicitAttributes::default(),
                kbt: HashMap::new(),
                entities: Vec::new(),
                results: Vec::new(),
                records: Vec::new(),
            })
            .collect();
        Self {
            kb,
            models,
            config,
            corpus: Corpus::new(),
            mapping: CorpusMapping::default(),
            states,
            counts: StageCounts::default(),
            batches: Vec::new(),
        }
    }

    /// Ingest one batch stage by stage (classes in `CLASS_KEYS` order, as
    /// the real pipeline does under a single shard), then project the
    /// touched classes as publication would.
    pub fn ingest(&mut self, batch: &Corpus, rec: &mut Recorder, op: u64) {
        let (kb, models, config) = (self.kb, self.models, self.config);
        let mut stages = BatchStages::default();
        let whole = rec.enter("core.shadow_ingest", op);
        self.counts.tables += batch.len();
        self.counts.rows += batch.total_rows();

        let (batch_mapping, _) = rec.time("matching.match_corpus", op, || {
            match_corpus(batch, kb, &models.matcher_weights, &config.schema, None)
        });

        let mut touched_per_state: Vec<Vec<usize>> = Vec::with_capacity(self.states.len());
        for state in &mut self.states {
            let class = state.class;
            let rows: Vec<RowRef> = batch
                .tables()
                .iter()
                .filter(|t| {
                    batch_mapping
                        .table(t.id)
                        .is_some_and(|tm| tm.class == Some(class))
                })
                .flat_map(|t| t.row_refs())
                .collect();
            if rows.is_empty() {
                touched_per_state.push(Vec::new());
                continue;
            }

            let context = rec.enter("clustering.context", op);
            let contexts = build_row_contexts(batch, &batch_mapping, &rows, &mut state.interner);
            state.implicit.merge(ImplicitAttributes::build(
                batch,
                &batch_mapping,
                kb,
                class,
                &state.kb_index,
            ));
            if config.fusion.scoring == ScoringMethod::Kbt {
                let ids: Vec<TableId> = batch.tables().iter().map(|t| t.id).collect();
                state.kbt.extend(kbt_scores_for_tables(
                    batch,
                    &batch_mapping,
                    kb,
                    class,
                    &ids,
                ));
            }
            for table in batch.tables() {
                if batch_mapping.table(table.id).map(|tm| tm.class) != Some(Some(class)) {
                    continue;
                }
                let labels: Vec<String> = contexts
                    .iter()
                    .filter(|c| c.row.table == table.id && !c.normalized_label.is_empty())
                    .map(|c| c.normalized_label.clone())
                    .collect();
                state.phi.add_table(table.id, &labels);
            }
            rec.exit(context);

            let (touched, secs) = rec.time("clustering.ingest", op, || {
                state.clusterer.ingest(
                    contexts,
                    &models.row_model,
                    state.phi.vectors(),
                    &state.implicit,
                    &state.interner,
                )
            });
            stages.clustering_s += secs;
            stages.mapped_rows += rows.len();
            let known = state.entities.len();
            self.counts.new_clusters += touched.iter().filter(|&&c| c >= known).count();
            self.counts.updated_clusters += touched.iter().filter(|&&c| c < known).count();
            state
                .entities
                .resize_with(state.clusterer.len(), || Entity {
                    class,
                    rows: Vec::new(),
                    labels: Vec::new(),
                    facts: Vec::new(),
                });
            state
                .results
                .resize_with(state.clusterer.len(), || NewDetectionResult {
                    entity: 0,
                    outcome: NewDetectionOutcome::New,
                    best_score: 0.0,
                    candidate_count: 0,
                });
            touched_per_state.push(touched);
        }
        self.counts.mapped_rows += stages.mapped_rows;

        // Fusion reads any row of a touched cluster, the batch's included.
        for table in batch.tables() {
            self.corpus.push(table.clone());
        }
        self.mapping.merge(batch_mapping);

        let (corpus, mapping) = (&self.corpus, &self.mapping);
        for (state, touched) in self.states.iter_mut().zip(&touched_per_state) {
            if touched.is_empty() {
                continue;
            }
            let class = state.class;
            let clusters: Vec<Vec<RowRef>> = touched
                .iter()
                .map(|&c| state.clusterer.cluster_row_refs(c))
                .collect();
            let (entities, _) = rec.time("fusion.create_entities", op, || {
                create_entities_with_scores(
                    &clusters,
                    corpus,
                    mapping,
                    kb,
                    class,
                    &config.fusion,
                    Some(&state.kbt),
                )
            });
            let (contexts, _) = rec.time("newdetect.context", op, || {
                entities
                    .iter()
                    .cloned()
                    .map(|e| EntityContext::build(e, corpus, &state.implicit, &mut state.interner))
                    .collect::<Vec<_>>()
            });
            let (results, _) = rec.time("newdetect.detect", op, || {
                detect_new(
                    &contexts,
                    kb,
                    &state.kb_index,
                    &models.entity_model,
                    &config.newdetect,
                    &mut state.interner,
                )
            });
            self.counts.clusters_fused += touched.len();
            for ((&cluster, entity), mut result) in touched.iter().zip(entities).zip(results) {
                result.entity = cluster;
                self.counts.classified_new += usize::from(result.outcome.is_new());
                state.entities[cluster] = entity;
                state.results[cluster] = result;
            }
        }
        rec.exit(whole);

        // Publication rebuilds the projection of every touched class: one
        // self-contained record per entity plus a frozen label index.
        let publish = rec.enter("serve.publish", op);
        for (state, touched) in self.states.iter_mut().zip(&touched_per_state) {
            if touched.is_empty() {
                continue;
            }
            stages.entities_in_touched += state.entities.len();
            let mut index = LabelIndex::new();
            let mut records = Vec::with_capacity(state.entities.len());
            for (pos, (entity, result)) in state.entities.iter().zip(&state.results).enumerate() {
                for label in &entity.labels {
                    index.insert(pos as u64, label);
                }
                let outcome = match result.outcome {
                    NewDetectionOutcome::New => LinkOutcome::New,
                    NewDetectionOutcome::Existing(instance) => LinkOutcome::Existing {
                        instance,
                        label: kb.instance_label(instance).unwrap_or_default().to_string(),
                    },
                };
                records.push(EntityRecord {
                    class: state.class,
                    labels: entity.labels.clone(),
                    facts: entity.facts.clone(),
                    rows: entity.rows.clone(),
                    tables: entity.provenance_tables(),
                    outcome,
                    best_score: result.best_score,
                    candidate_count: result.candidate_count,
                });
            }
            std::hint::black_box(index.into_shared());
            state.records = records;
        }
        stages.publish_s = rec.exit(publish);
        self.batches.push(stages);
    }

    /// Classes whose shadow output differs from the real pipeline's
    /// entities/results or from the records `snapshot` serves.
    pub fn mismatches(
        &self,
        real: &IncrementalPipeline<'_>,
        snapshot: &KbSnapshot,
    ) -> Vec<ClassKey> {
        self.states
            .iter()
            .filter(|state| {
                let shadow = (!state.clusterer.is_empty())
                    .then_some((state.entities.as_slice(), state.results.as_slice()));
                let served = snapshot.class(state.class).map_or(&[][..], |c| c.records());
                shadow != real.class_entities(state.class) || state.records.as_slice() != served
            })
            .map(|state| state.class)
            .collect()
    }
}
