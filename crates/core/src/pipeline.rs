//! The two-iteration LTEE pipeline.

use std::collections::HashMap;

use ltee_clustering::{
    build_pair_dataset, build_row_contexts, cluster_rows, ClusteringConfig, ImplicitAttributes, RowMetricKind,
    RowSimilarityModel, ROW_MODEL_TRAINING,
};
use ltee_clustering::metrics::PhiTableVectors;
use ltee_fusion::{create_entities, Entity, EntityCreationConfig};
use ltee_intern::Interner;
use ltee_kb::{ClassKey, KnowledgeBase, CLASS_KEYS};
use ltee_matching::{
    learn_weights, match_corpus, match_corpus_and_candidates, CorpusFeedback, CorpusMapping, MatcherWeights,
    SchemaMatchingConfig,
};
use ltee_ml::{AggregationMethod, MetricKind};
use ltee_newdetect::{
    build_entity_pair_dataset, detect_new, EntityMetricKind, EntitySimilarityModel, NewDetectionConfig,
    NewDetectionOutcome, NewDetectionResult, ENTITY_MODEL_TRAINING,
};
use ltee_newdetect::metrics::EntityContext;
use ltee_webtables::{Corpus, GoldStandard, RowRef, TableId};

use crate::parallel::Parallelism;
use crate::shard::ShardPlan;

/// Typed errors of pipeline training and execution.
///
/// The pipeline used to panic on degenerate inputs (empty corpora, empty
/// gold standards, training sets without a single pair); callers now get a
/// typed error they can handle — a serving process must not die because one
/// request carried an empty batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The corpus holds no tables, so there is nothing to run on.
    EmptyCorpus,
    /// No gold standards were supplied to training.
    NoGoldStandards,
    /// A training stage produced an empty dataset (e.g. the schema matcher
    /// mapped no rows for any gold class, so no row pairs exist).
    EmptyTrainingData {
        /// Which training stage ran dry.
        stage: &'static str,
    },
    /// A micro-batch re-used the id of an already ingested table.
    DuplicateTable(TableId),
    /// A micro-batch held a table the store could not read back.
    MalformedTable {
        /// The table.
        table: TableId,
        /// What is wrong with it.
        reason: String,
    },
    /// A micro-batch would take the rows or the tables ingested past
    /// `u32::MAX`, the most the stream state indexes.
    CapacityExceeded {
        /// `"rows"` or `"tables"`.
        what: &'static str,
        /// How many were ingested before the batch.
        ingested: usize,
        /// How many the batch holds.
        batch: usize,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::EmptyCorpus => write!(f, "the corpus contains no tables"),
            PipelineError::NoGoldStandards => {
                write!(f, "at least one gold standard is required for training")
            }
            PipelineError::EmptyTrainingData { stage } => {
                write!(f, "training stage '{stage}' produced an empty dataset")
            }
            PipelineError::DuplicateTable(id) => {
                write!(f, "table {} was already ingested", id.raw())
            }
            PipelineError::MalformedTable { table, reason } => {
                write!(f, "table {} is malformed: {reason}", table.raw())
            }
            PipelineError::CapacityExceeded { what, ingested, batch } => write!(
                f,
                "a batch of {batch} {what} on top of {ingested} would pass the {} a pipeline holds",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Configuration of the full pipeline: the settings a caller varies.
///
/// The paper trains its models once, under one setting, so everything
/// else is a constant next to the code that runs it:
/// - the matcher weights' genetic search, [`ltee_matching::MATCHER_GENETIC`];
/// - the row model's training, [`ltee_clustering::ROW_MODEL_TRAINING`], over
///   every row metric ([`RowMetricKind::ALL`]);
/// - the entity model's training, [`ltee_newdetect::ENTITY_MODEL_TRAINING`],
///   over every entity metric ([`EntityMetricKind::ALL`]);
/// - the clustering's block candidates, greedy batch size and KLj pass
///   ceiling, the associated constants of [`ClusteringConfig`];
/// - when two values are equal, [`ltee_types::EquivalenceConfig::default`],
///   in matching, implicit attributes, fusion and KBT scoring alike.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Number of pipeline iterations (the paper uses two; Table 6 shows a
    /// third adds almost nothing).
    pub iterations: usize,
    /// Schema matching configuration.
    pub schema: SchemaMatchingConfig,
    /// Clustering algorithm configuration.
    pub clustering: ClusteringConfig,
    /// Entity creation (fusion) configuration.
    pub fusion: EntityCreationConfig,
    /// New detection configuration.
    pub newdetect: NewDetectionConfig,
    /// Thread count for every parallel stage (training and inference).
    /// Results are bit-identical at every setting; see [`Parallelism`].
    pub parallelism: Parallelism,
    /// How the serve path's per-class states are grouped into
    /// concurrently-ingesting shards. Pure execution placement — results
    /// are bit-identical at every setting, and (like `parallelism`) it is
    /// excluded from the config fingerprint, so artifacts and checkpoints
    /// are portable across shard counts. See [`ShardPlan`].
    pub shards: ShardPlan,
}

impl PipelineConfig {
    /// The shipped configuration: two iterations, blocking and KLj on,
    /// matching-score fusion, and thread and shard counts resolved from the
    /// environment ([`Parallelism::Auto`], [`ShardPlan::Auto`]).
    pub fn fast() -> Self {
        Self {
            iterations: 2,
            schema: SchemaMatchingConfig::default(),
            clustering: ClusteringConfig::default(),
            fusion: EntityCreationConfig::default(),
            newdetect: NewDetectionConfig::default(),
            parallelism: Parallelism::Auto,
            shards: ShardPlan::Auto,
        }
    }
}

/// The learned models the pipeline needs: matcher weights, the row
/// similarity model and the entity similarity model.
#[derive(Debug, Clone)]
pub struct TrainedModels {
    /// Attribute-to-property matcher weights and thresholds.
    pub matcher_weights: MatcherWeights,
    /// Row similarity model for clustering.
    pub row_model: RowSimilarityModel,
    /// Entity-to-instance similarity model for new detection.
    pub entity_model: EntitySimilarityModel,
}

ltee_intern::heap_size!(TrainedModels { matcher_weights, row_model, entity_model });

/// Train all models from gold standards (typically the learning folds).
///
/// This is the **train phase** of the train-once / serve-many split: the
/// returned [`TrainedModels`] can be wrapped into a persistent
/// [`crate::ModelArtifact`] and later served without retraining by a
/// [`crate::Pipeline`] or [`crate::IncrementalPipeline`].
pub fn train_models(
    corpus: &Corpus,
    kb: &KnowledgeBase,
    golds: &[GoldStandard],
    config: &PipelineConfig,
) -> Result<TrainedModels, PipelineError> {
    if corpus.is_empty() {
        return Err(PipelineError::EmptyCorpus);
    }
    if golds.is_empty() {
        return Err(PipelineError::NoGoldStandards);
    }
    config.parallelism.install();
    // One interner per training run: every normalised label / token is
    // interned once, and all similarity kernels compare integers.
    let mut interner = Interner::new();
    let gold_refs: Vec<&GoldStandard> = golds.iter().collect();
    // Matcher weights from the gold attribute annotations (first iteration:
    // no feedback available).
    let matcher_weights = learn_weights(corpus, kb, &gold_refs, None);

    // A first-iteration mapping to derive row features for training, and
    // the implicit attributes of each gold class — shared by both models
    // below — from the candidates the class matcher already retrieved.
    let (mapping, candidates) =
        match_corpus_and_candidates(corpus, kb, &matcher_weights, &config.schema, None);
    let implicits: Vec<ImplicitAttributes> = golds
        .iter()
        .map(|gold| ImplicitAttributes::from_candidates(corpus, &mapping, kb, gold.class, &candidates))
        .collect();
    drop(candidates);

    // Row similarity model: pool pair datasets over all classes.
    let mut row_dataset: Option<ltee_ml::Dataset> = None;
    for (gold, implicit) in golds.iter().zip(&implicits) {
        let rows = mapping.class_rows(corpus, gold.class);
        let contexts = build_row_contexts(corpus, &mapping, &rows, &mut interner);
        let phi = PhiTableVectors::build(corpus, &contexts);
        let ds = build_pair_dataset(&contexts, gold, RowMetricKind::ALL, &phi, implicit, &interner);
        row_dataset = Some(match row_dataset {
            None => ds,
            Some(mut acc) => {
                for s in ds.samples {
                    acc.push(s);
                }
                acc
            }
        });
    }
    let row_dataset = row_dataset.ok_or(PipelineError::NoGoldStandards)?;
    if row_dataset.is_empty() {
        return Err(PipelineError::EmptyTrainingData { stage: "row pair dataset" });
    }
    let row_model = RowSimilarityModel::train(
        &row_dataset,
        RowMetricKind::ALL.to_vec(),
        AggregationMethod::Combined,
        &ROW_MODEL_TRAINING,
    );

    // Entity similarity model: entities fused from the gold clusters, paired
    // with knowledge base candidates.
    let mut entity_dataset: Option<ltee_ml::Dataset> = None;
    for (gold, implicit) in golds.iter().zip(&implicits) {
        let clusters: Vec<Vec<RowRef>> = gold.clusters.iter().map(|c| c.rows.clone()).collect();
        let entities = create_entities(&clusters, corpus, &mapping, kb, gold.class, &config.fusion);
        let contexts: Vec<EntityContext> = entities
            .into_iter()
            .map(|e| EntityContext::build(e, corpus, implicit, &mut interner))
            .collect();
        let truth: Vec<Option<ltee_kb::InstanceId>> =
            gold.clusters.iter().map(|c| c.kb_instance).collect();
        let ds = build_entity_pair_dataset(
            &contexts,
            &truth,
            kb,
            kb.class_label_index(gold.class),
            EntityMetricKind::ALL,
            &mut interner,
        );
        entity_dataset = Some(match entity_dataset {
            None => ds,
            Some(mut acc) => {
                for s in ds.samples {
                    acc.push(s);
                }
                acc
            }
        });
    }
    let entity_dataset = entity_dataset.ok_or(PipelineError::NoGoldStandards)?;
    if entity_dataset.is_empty() {
        return Err(PipelineError::EmptyTrainingData { stage: "entity pair dataset" });
    }
    let entity_model = EntitySimilarityModel::train(
        &entity_dataset,
        EntityMetricKind::ALL.to_vec(),
        AggregationMethod::Combined,
        &ENTITY_MODEL_TRAINING,
    );

    Ok(TrainedModels { matcher_weights, row_model, entity_model })
}

/// Output of the pipeline for one class.
#[derive(Debug, Clone)]
pub struct ClassOutput {
    /// The class.
    pub class: ClassKey,
    /// The row clusters produced by the final iteration.
    pub clusters: Vec<Vec<RowRef>>,
    /// The entities created from those clusters (parallel to `clusters`).
    pub entities: Vec<Entity>,
    /// New detection results (parallel to `entities`).
    pub results: Vec<NewDetectionResult>,
}

impl ClassOutput {
    /// Outcomes parallel to `entities`.
    pub fn outcomes(&self) -> Vec<NewDetectionOutcome> {
        self.results.iter().map(|r| r.outcome).collect()
    }

    /// The entities classified as new.
    pub fn new_entities(&self) -> Vec<&Entity> {
        self.results
            .iter()
            .filter(|r| r.outcome.is_new())
            .map(|r| &self.entities[r.entity])
            .collect()
    }

    /// The entities matched to existing instances, with the instance ids.
    pub fn existing_entities(&self) -> Vec<(&Entity, ltee_kb::InstanceId)> {
        self.results
            .iter()
            .filter_map(|r| r.outcome.instance().map(|id| (&self.entities[r.entity], id)))
            .collect()
    }
}

/// Full pipeline output: the final schema mapping plus per-class outputs.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// The schema mapping of the final iteration.
    pub mapping: CorpusMapping,
    /// Per-class outputs.
    pub classes: Vec<ClassOutput>,
}

impl PipelineOutput {
    /// The output for one class, if the corpus contained tables of it.
    pub fn class(&self, class: ClassKey) -> Option<&ClassOutput> {
        self.classes.iter().find(|c| c.class == class)
    }
}

/// The LTEE pipeline.
#[derive(Debug, Clone)]
pub struct Pipeline<'a> {
    kb: &'a KnowledgeBase,
    models: TrainedModels,
    config: PipelineConfig,
}

impl<'a> Pipeline<'a> {
    /// Create a pipeline over a knowledge base with trained models.
    pub fn new(kb: &'a KnowledgeBase, models: TrainedModels, config: PipelineConfig) -> Self {
        Self { kb, models, config }
    }

    /// The trained models (e.g. to inspect metric importances).
    pub fn models(&self) -> &TrainedModels {
        &self.models
    }

    /// Run the two-iteration batch pipeline over a corpus.
    ///
    /// Returns [`PipelineError::EmptyCorpus`] instead of panicking when the
    /// corpus holds no tables.
    pub fn run(&self, corpus: &Corpus) -> Result<PipelineOutput, PipelineError> {
        if corpus.is_empty() {
            return Err(PipelineError::EmptyCorpus);
        }
        self.config.parallelism.install();
        // One interner per run, shared by every class and iteration: labels
        // and tokens are interned exactly once (sequentially, in row order)
        // and every scoring stage compares integers.
        let mut interner = Interner::new();
        let mut feedback: Option<CorpusFeedback> = None;
        let mut remaining = self.config.iterations.max(1);

        // The last iteration's output is the run's: returning from inside
        // the loop means there is no "no iteration ran" case to handle.
        loop {
            let mapping = match_corpus(
                corpus,
                self.kb,
                &self.models.matcher_weights,
                &self.config.schema,
                feedback.as_ref(),
            );

            let mut classes = Vec::new();
            let mut all_clusters: Vec<Vec<RowRef>> = Vec::new();
            let mut cluster_instance: HashMap<usize, ltee_kb::InstanceId> = HashMap::new();

            for class in CLASS_KEYS {
                let Some(class_output) = run_class_batch(
                    corpus,
                    &mapping,
                    self.kb,
                    class,
                    &self.models,
                    &self.config,
                    &mut interner,
                ) else {
                    continue;
                };

                // Collect feedback for the next iteration.
                for (result, cluster) in class_output.results.iter().zip(class_output.clusters.iter())
                {
                    let global_index = all_clusters.len();
                    all_clusters.push(cluster.clone());
                    if let Some(instance) = result.outcome.instance() {
                        cluster_instance.insert(global_index, instance);
                    }
                }

                classes.push(class_output);
            }

            remaining -= 1;
            if remaining == 0 {
                return Ok(PipelineOutput { mapping, classes });
            }
            feedback = Some(CorpusFeedback { mapping, clusters: all_clusters, cluster_instance });
        }
    }

    /// Run the **streaming (serve-profile)** pipeline over a corpus in one
    /// pass, producing exactly what an [`crate::IncrementalPipeline`] with
    /// the same models and config produces after ingesting the corpus —
    /// however it is split into micro-batches. This is the reference run
    /// the incremental equivalence tests compare against.
    ///
    /// The serve profile differs from [`Pipeline::run`]: a single matching
    /// iteration (cross-batch feedback is a batch-mode feature), prefix
    /// blocking, per-table frozen PHI vectors and no KLj refinement — see
    /// `ltee_clustering::incremental` for the rationale.
    pub fn run_streaming(&self, corpus: &Corpus) -> Result<PipelineOutput, PipelineError> {
        if corpus.is_empty() {
            return Err(PipelineError::EmptyCorpus);
        }
        let mut incremental = crate::incremental::IncrementalPipeline::new(
            self.kb,
            self.models.clone(),
            self.config.clone(),
        );
        incremental.ingest(corpus)?;
        Ok(incremental.output())
    }
}

/// One batch-mode class stage: build row contexts and corpus statistics,
/// cluster, fuse and classify. Returns `None` when the mapping assigns the
/// class no rows. Shared by every iteration of [`Pipeline::run`]; the
/// incremental serve path reuses the fusion/detection half via
/// [`fuse_and_detect`].
pub(crate) fn run_class_batch(
    corpus: &Corpus,
    mapping: &CorpusMapping,
    kb: &KnowledgeBase,
    class: ClassKey,
    models: &TrainedModels,
    config: &PipelineConfig,
    interner: &mut Interner,
) -> Option<ClassOutput> {
    let rows = mapping.class_rows(corpus, class);
    if rows.is_empty() {
        return None;
    }
    let contexts = build_row_contexts(corpus, mapping, &rows, interner);
    let phi = PhiTableVectors::build(corpus, &contexts);
    let index = kb.class_label_index(class);
    let implicit = ImplicitAttributes::build(corpus, mapping, kb, class, index);

    let clustering = cluster_rows(
        &contexts,
        &models.row_model,
        &phi,
        &implicit,
        &config.clustering,
        interner,
    );
    let clusters = clustering.to_row_refs(&contexts);

    let (entities, results) = fuse_and_detect(
        &clusters, corpus, mapping, kb, class, &implicit, index, models, config, None, interner,
    );
    Some(ClassOutput { class, clusters, entities, results })
}

/// The fusion + new-detection tail of a class stage: create one entity per
/// cluster and classify each as new or existing. `results[i]` corresponds
/// to `clusters[i]`. Used by the batch path on all clusters of an
/// iteration, and by the incremental serve path on just the clusters a
/// micro-batch touched.
///
/// `kbt` optionally supplies precomputed Knowledge-Based-Trust column
/// scores (see [`ltee_fusion::kbt_scores_for_tables`]); with `None` and
/// [`ltee_fusion::ScoringMethod::Kbt`] scoring, the scores are recomputed
/// over the whole mapping — fine for the batch path, wasteful per
/// micro-batch, which is why the serve path caches them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fuse_and_detect(
    clusters: &[Vec<RowRef>],
    corpus: &Corpus,
    mapping: &CorpusMapping,
    kb: &KnowledgeBase,
    class: ClassKey,
    implicit: &ImplicitAttributes,
    index: &ltee_index::LabelIndex,
    models: &TrainedModels,
    config: &PipelineConfig,
    kbt: Option<&std::collections::HashMap<(ltee_webtables::TableId, usize), f64>>,
    interner: &mut Interner,
) -> (Vec<Entity>, Vec<NewDetectionResult>) {
    let entities = match kbt {
        Some(kbt) => ltee_fusion::create_entities_with_scores(
            clusters,
            corpus,
            mapping,
            kb,
            class,
            &config.fusion,
            Some(kbt),
        ),
        None => create_entities(clusters, corpus, mapping, kb, class, &config.fusion),
    };
    let entity_contexts: Vec<EntityContext> = entities
        .iter()
        .cloned()
        .map(|e| EntityContext::build(e, corpus, implicit, interner))
        .collect();
    let results =
        detect_new(&entity_contexts, kb, index, &models.entity_model, &config.newdetect, interner);
    (entities, results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::TrainedWorld;
    use ltee_webtables::GeneratedCorpus;

    fn run_tiny() -> (ltee_kb::World, GeneratedCorpus, Vec<GoldStandard>, PipelineOutput) {
        let trained = TrainedWorld::train(101);
        let output = trained.run_batch();
        let TrainedWorld { world, corpus, golds, .. } = trained;
        (world, corpus, golds, output)
    }

    #[test]
    fn empty_corpus_is_a_typed_error_not_a_panic() {
        let TrainedWorld { world, corpus, golds, config, models } = TrainedWorld::train(101);

        let empty = Corpus::new();
        assert_eq!(
            train_models(&empty, world.kb(), &golds, &config).unwrap_err(),
            PipelineError::EmptyCorpus
        );
        assert_eq!(
            train_models(&corpus, world.kb(), &[], &config).unwrap_err(),
            PipelineError::NoGoldStandards
        );

        let pipeline = Pipeline::new(world.kb(), models, config);
        assert_eq!(pipeline.run(&empty).unwrap_err(), PipelineError::EmptyCorpus);
        assert_eq!(pipeline.run_streaming(&empty).unwrap_err(), PipelineError::EmptyCorpus);
    }

    #[test]
    fn pipeline_produces_output_for_every_class() {
        let (_, _, _, output) = run_tiny();
        assert_eq!(output.classes.len(), 3);
        for class_output in &output.classes {
            assert!(!class_output.clusters.is_empty());
            assert_eq!(class_output.clusters.len(), class_output.entities.len());
            assert_eq!(class_output.entities.len(), class_output.results.len());
        }
    }

    #[test]
    fn pipeline_finds_new_and_existing_entities() {
        let (_, _, _, output) = run_tiny();
        let mut new_total = 0usize;
        let mut existing_total = 0usize;
        for class_output in &output.classes {
            new_total += class_output.new_entities().len();
            existing_total += class_output.existing_entities().len();
        }
        assert!(new_total > 0, "pipeline should find new entities");
        assert!(existing_total > 0, "pipeline should link some entities to the KB");
    }

    #[test]
    fn pipeline_new_detection_beats_chance_on_gold_clusters() {
        let (_, _, golds, output) = run_tiny();
        // For every produced entity that maps cleanly onto a gold cluster,
        // check whether its new/existing classification agrees with the gold.
        let mut correct = 0usize;
        let mut total = 0usize;
        for class_output in &output.classes {
            let gold = golds.iter().find(|g| g.class == class_output.class).unwrap();
            for (entity, result) in class_output.entities.iter().zip(class_output.results.iter()) {
                if let Some(ci) = ltee_eval::instances::entity_gold_cluster(&entity.rows, gold) {
                    total += 1;
                    if gold.clusters[ci].is_new == result.outcome.is_new() {
                        correct += 1;
                    }
                }
            }
        }
        assert!(total > 20, "expected a reasonable number of evaluable entities, got {total}");
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.6, "new/existing agreement {acc:.2}");
    }

    #[test]
    fn clusters_partition_mapped_rows() {
        let (_, corpus, _, output) = run_tiny();
        for class_output in &output.classes {
            let mapped_rows = output.mapping.class_rows(&corpus, class_output.class).len();
            let clustered: usize = class_output.clusters.iter().map(|c| c.len()).sum();
            assert_eq!(clustered, mapped_rows);
        }
    }
}
