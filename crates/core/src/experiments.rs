//! The experiment harness: one [`TrainedWorld`] (world, corpus, gold
//! standards and models, built once) and one function per paper table
//! (plus the Section 6 ranked evaluation), each a view over it and its one
//! batch run. Every function returns plain row structs, which the umbrella
//! crate's `paper_tables` example prints.

use std::collections::{HashMap, HashSet};

use ltee_clustering::metrics::PhiTableVectors;
use ltee_clustering::{
    build_pair_dataset, build_row_contexts, cluster_rows, ImplicitAttributes, RowMetricKind, RowSimilarityModel,
    ROW_MODEL_TRAINING,
};
use ltee_eval::{
    evaluate_clustering, evaluate_facts, evaluate_new_detection, evaluate_new_instances,
    fact_accuracy_against_world, EntityTruth, RankedEvaluation,
};
use ltee_fusion::{create_entities, EntityCreationConfig, ScoringMethod};
use ltee_intern::Interner;
use ltee_kb::{generate_world, ClassKey, ClassProfile, GeneratorConfig, Scale, World, CLASS_KEYS};
use ltee_matching::{learn_weights, match_corpus, CorpusFeedback, CorpusMapping};
use ltee_ml::{grouped_k_folds, AggregationMethod, MetricKind};
use ltee_newdetect::metrics::EntityContext;
use ltee_newdetect::{
    build_entity_pair_dataset, detect_new, EntityMetricKind, EntitySimilarityModel, ENTITY_MODEL_TRAINING,
};
use ltee_webtables::{generate_corpus, Corpus, CorpusConfig, CorpusProfile, GeneratedCorpus, GoldStandard, RowRef};

use crate::pipeline::{train_models, Pipeline, PipelineConfig, PipelineOutput, TrainedModels};

/// Shared configuration of the experiment harness: the world and corpus
/// every paper table is computed on.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Seed for the synthetic world.
    pub seed: u64,
    /// Knowledge base / world scale.
    pub scale: Scale,
    /// Corpus configuration.
    pub corpus: CorpusConfig,
}

impl ExperimentConfig {
    /// A very small configuration for tests and quick benches.
    pub fn tiny() -> Self {
        Self { seed: 2019, scale: Scale::tiny(), corpus: CorpusConfig::tiny() }
    }
}

/// A trained setup: the synthetic world, the corpus the models were
/// trained on, the per-class gold standards, and the trained models —
/// everything needed to run the batch pipeline, open a serve pipeline or
/// compute the paper tables.
///
/// Entirely deterministic in `(ExperimentConfig, PipelineConfig)`: two
/// `TrainedWorld`s built from the same inputs produce bit-identical
/// results at any thread count.
#[derive(Debug)]
pub struct TrainedWorld {
    /// The synthetic world (KB + long-tail ground truth).
    pub world: World,
    /// The corpus the models were trained on, with its ground truth.
    pub corpus: GeneratedCorpus,
    /// Per-class gold standards derived from the generator's ground truth.
    pub golds: Vec<GoldStandard>,
    /// The pipeline configuration used for training (and later runs).
    pub config: PipelineConfig,
    /// The trained matcher / clustering / detection models.
    pub models: TrainedModels,
}

impl TrainedWorld {
    /// Generate the world and corpus of `experiment`, build the gold
    /// standards and train every model under `config`.
    pub fn new(experiment: &ExperimentConfig, config: PipelineConfig) -> Self {
        let world = generate_world(&GeneratorConfig::new(experiment.scale, experiment.seed));
        let corpus = generate_corpus(&world, &experiment.corpus);
        let golds: Vec<GoldStandard> =
            CLASS_KEYS.iter().map(|&c| GoldStandard::build(&world, &corpus, c)).collect();
        let models = train_models(&corpus, world.kb(), &golds, &config).expect("trainable corpus");
        Self { world, corpus, golds, config, models }
    }

    /// Train on a `Scale::tiny()` world with [`CorpusConfig::tiny`] under
    /// `config`.
    pub fn train_with(world_seed: u64, config: PipelineConfig) -> Self {
        Self::new(&ExperimentConfig { seed: world_seed, ..ExperimentConfig::tiny() }, config)
    }

    /// [`TrainedWorld::train_with`] under [`PipelineConfig::fast`] — the
    /// examples' standard setup.
    pub fn train(world_seed: u64) -> Self {
        Self::train_with(world_seed, PipelineConfig::fast())
    }

    /// Run the batch pipeline over the training corpus.
    pub fn run_batch(&self) -> PipelineOutput {
        Pipeline::new(self.world.kb(), self.models.clone(), self.config.clone())
            .run(&self.corpus)
            .expect("non-empty corpus")
    }

    /// The gold standard of one class.
    pub fn gold(&self, class: ClassKey) -> &GoldStandard {
        self.golds.iter().find(|g| g.class == class).expect("gold standard built per class")
    }
}

// ---------------------------------------------------------------------------
// Tables 1 & 2 — knowledge base profile
// ---------------------------------------------------------------------------

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Class name.
    pub class: String,
    /// Number of instances.
    pub instances: usize,
    /// Number of facts.
    pub facts: usize,
}

/// Table 1: instances and facts per class.
pub fn table01_kb_profile(world: &World) -> Vec<Table1Row> {
    CLASS_KEYS
        .iter()
        .map(|&class| {
            let profile = ClassProfile::compute(world.kb(), class);
            Table1Row { class: class.short_name().to_string(), instances: profile.instances, facts: profile.facts }
        })
        .collect()
}

/// One row of Table 2 (and Table 12).
#[derive(Debug, Clone)]
pub struct DensityRow {
    /// Class name.
    pub class: String,
    /// The property.
    pub property: &'static str,
    /// Number of facts.
    pub facts: usize,
    /// Density (fraction of instances/entities with the property).
    pub density: f64,
}

/// Table 2: per-property facts and densities of the knowledge base.
pub fn table02_property_density(world: &World) -> Vec<DensityRow> {
    let mut rows = Vec::new();
    for &class in &CLASS_KEYS {
        let profile = ClassProfile::compute(world.kb(), class);
        for d in profile.densities {
            rows.push(DensityRow {
                class: class.short_name().to_string(),
                property: d.property,
                facts: d.facts,
                density: d.density,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Table 3 — corpus characteristics
// ---------------------------------------------------------------------------

/// Table 3: corpus row/column statistics.
pub fn table03_corpus_stats(corpus: &Corpus) -> CorpusProfile {
    CorpusProfile::compute(corpus)
}

// ---------------------------------------------------------------------------
// Table 4 — matched tables and value correspondences
// ---------------------------------------------------------------------------

/// One row of Table 4.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Class name.
    pub class: String,
    /// Tables matched to the class with at least one matched attribute.
    pub tables: usize,
    /// Non-empty cell values inside matched attribute columns.
    pub matched_values: usize,
    /// Non-empty cell values in unmatched (non-label) columns of those tables.
    pub unmatched_values: usize,
}

/// Table 4: tables matched per class and matched/unmatched value counts.
pub fn table04_value_correspondences(corpus: &Corpus, mapping: &CorpusMapping) -> Vec<Table4Row> {
    CLASS_KEYS
        .iter()
        .map(|&class| {
            let mut tables = 0usize;
            let mut matched = 0usize;
            let mut unmatched = 0usize;
            for tm in mapping.tables_of_class(class) {
                if tm.matched_count() == 0 {
                    continue;
                }
                tables += 1;
                let Some(table) = corpus.table(tm.table) else { continue };
                for (col, corr) in tm.correspondences.iter().enumerate() {
                    if col == tm.label_column {
                        continue;
                    }
                    let non_empty = table.columns[col].cells.iter().filter(|c| !c.trim().is_empty()).count();
                    if corr.is_some() {
                        matched += non_empty;
                    } else {
                        unmatched += non_empty;
                    }
                }
            }
            Table4Row {
                class: class.short_name().to_string(),
                tables,
                matched_values: matched,
                unmatched_values: unmatched,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 5 — gold standard overview
// ---------------------------------------------------------------------------

/// One row of Table 5.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Class name.
    pub class: String,
    /// Gold standard statistics.
    pub stats: ltee_webtables::GoldStandardStats,
}

/// Table 5: gold standard overview per class.
pub fn table05_gold_standard(world: &World, corpus: &GeneratedCorpus) -> Vec<Table5Row> {
    CLASS_KEYS
        .iter()
        .map(|&class| {
            let gold = GoldStandard::build(world, corpus, class);
            Table5Row { class: class.short_name().to_string(), stats: gold.stats(corpus) }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 6 — attribute-to-property matching by iteration
// ---------------------------------------------------------------------------

/// One row of Table 6.
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// Iteration number (1-based).
    pub iteration: usize,
    /// Precision of attribute-to-property correspondences.
    pub precision: f64,
    /// Recall of attribute-to-property correspondences.
    pub recall: f64,
    /// F1.
    pub f1: f64,
}

/// Correspondence precision/recall of a mapping against the gold attributes.
fn attribute_prf(mapping: &CorpusMapping, golds: &[GoldStandard]) -> (f64, f64, f64) {
    let mut gold_set: HashMap<(ltee_webtables::TableId, usize), &str> = HashMap::new();
    for gold in golds {
        for a in &gold.attributes {
            gold_set.insert((a.table, a.column), a.property);
        }
    }
    let mut predicted = 0usize;
    let mut correct = 0usize;
    for tm in mapping.tables() {
        for (col, corr) in tm.correspondences.iter().enumerate() {
            if let Some(m) = corr {
                predicted += 1;
                if gold_set.get(&(tm.table, col)).map(|p| *p == m.property).unwrap_or(false) {
                    correct += 1;
                }
            }
        }
    }
    let precision = if predicted == 0 { 0.0 } else { correct as f64 / predicted as f64 };
    let recall = if gold_set.is_empty() { 0.0 } else { correct as f64 / gold_set.len() as f64 };
    (precision, recall, ltee_eval::f1(precision, recall))
}

/// Table 6: attribute-to-property matching performance by pipeline iteration.
///
/// Iteration 1 runs without feedback; later iterations re-learn the matcher
/// weights with the previous iteration's correspondences and re-run schema
/// matching with the duplicate-based and corpus-level matchers enabled.
/// Every iteration's feedback clusters (and their instance links) come from
/// the one one-iteration pipeline run over the shared models: the models do
/// not depend on the iteration, so neither do the clusters.
pub fn table06_schema_matching_iterations(trained: &TrainedWorld, iterations: usize) -> Vec<Table6Row> {
    let (corpus, kb) = (&trained.corpus, trained.world.kb());
    let gold_refs: Vec<&GoldStandard> = trained.golds.iter().collect();

    let one_iteration = PipelineConfig { iterations: 1, ..trained.config.clone() };
    let output = Pipeline::new(kb, trained.models.clone(), one_iteration).run(corpus).expect("non-empty corpus");
    let mut clusters = Vec::new();
    let mut cluster_instance = HashMap::new();
    for class_output in &output.classes {
        for (cluster, result) in class_output.clusters.iter().zip(class_output.results.iter()) {
            if let Some(instance) = result.outcome.instance() {
                cluster_instance.insert(clusters.len(), instance);
            }
            clusters.push(cluster.clone());
        }
    }

    let mut rows = Vec::new();
    let mut feedback: Option<CorpusFeedback> = None;
    for iteration in 1..=iterations.max(1) {
        let weights = learn_weights(corpus, kb, &gold_refs, feedback.as_ref());
        let mapping = match_corpus(corpus, kb, &weights, &trained.config.schema, feedback.as_ref());
        let (precision, recall, f1) = attribute_prf(&mapping, &trained.golds);
        rows.push(Table6Row { iteration, precision, recall, f1 });
        feedback = Some(CorpusFeedback {
            mapping,
            clusters: clusters.clone(),
            cluster_instance: cluster_instance.clone(),
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Table 7 — row clustering ablation
// ---------------------------------------------------------------------------

/// One row of Table 7.
#[derive(Debug, Clone)]
pub struct Table7Row {
    /// The last metric added (the run uses all metrics up to this one).
    pub added_metric: String,
    /// Penalised clustering precision.
    pub pcp: f64,
    /// Average recall.
    pub ar: f64,
    /// F1.
    pub f1: f64,
    /// Importance of the added metric in the full model.
    pub importance: f64,
}

/// Table 7: clustering performance as metrics are added one by one, averaged
/// over classes, using a grouped train/test split of the gold clusters.
/// `mapping` is the first-iteration, default-weight corpus mapping.
pub fn table07_row_clustering_ablation(trained: &TrainedWorld, mapping: &CorpusMapping) -> Vec<Table7Row> {
    let (corpus, kb, settings) = (&trained.corpus, trained.world.kb(), &trained.config);
    let sets = Ablation::sets::<RowMetricKind>();
    let mut ablation = Ablation::default();

    let mut interner = Interner::new();
    for gold in &trained.golds {
        let class = gold.class;
        let rows = mapping.class_rows(corpus, class);
        if rows.is_empty() {
            continue;
        }
        let contexts = build_row_contexts(corpus, mapping, &rows, &mut interner);
        let phi = PhiTableVectors::build(corpus, &contexts);
        let index = kb.class_label_index(class);
        let implicit = ImplicitAttributes::build(corpus, mapping, kb, class, index);

        // Grouped split of the gold clusters: fold 0 is the test portion.
        let groups = gold.cluster_fold_groups();
        let folds = grouped_k_folds(&groups, 3, trained.world.config.seed);
        let train_gold = restrict_gold(gold, &folds[0].train);
        let test_gold = restrict_gold(gold, &folds[0].test);
        let test_rows: HashSet<RowRef> =
            test_gold.clusters.iter().flat_map(|c| c.rows.iter().copied()).collect();
        let test_contexts: Vec<_> =
            contexts.iter().filter(|c| test_rows.contains(&c.row)).cloned().collect();

        for metrics in &sets {
            let ds = build_pair_dataset(&contexts, &train_gold, metrics, &phi, &implicit, &interner);
            if ds.positives() == 0 || ds.negatives() == 0 {
                continue;
            }
            let model =
                RowSimilarityModel::train(&ds, metrics.clone(), AggregationMethod::Combined, &ROW_MODEL_TRAINING);
            let clustering =
                cluster_rows(&test_contexts, &model, &phi, &implicit, &settings.clustering, &interner);
            let produced = clustering.to_row_refs(&test_contexts);
            let gold_clusters: Vec<Vec<RowRef>> = test_gold.clusters.iter().map(|c| c.rows.clone()).collect();
            let eval = evaluate_clustering(&produced, &gold_clusters);
            ablation.record(
                metrics,
                [eval.penalized_precision, eval.average_recall, eval.f1],
                model.metric_importances(),
            );
        }
    }

    ablation
        .rows::<RowMetricKind>()
        .map(|(added_metric, [pcp, ar, f1], importance)| Table7Row { added_metric, pcp, ar, f1, importance })
        .collect()
}

/// The accumulator of one metric ablation (Tables 7 and 8): three scores
/// per metric set and class, and the full-metric models' importance of
/// every metric. Metric set `i` holds the metrics `ALL[..=i]`.
#[derive(Default)]
struct Ablation {
    /// `[set][class]` scores.
    scores: Vec<Vec<[f64; 3]>>,
    /// Metric name → (importance sum, models) over the full-metric models.
    importance: HashMap<&'static str, (f64, usize)>,
}

impl Ablation {
    /// The metric sets `ALL[..1]`, `ALL[..2]`, … of one ablation.
    fn sets<K: MetricKind>() -> Vec<Vec<K>> {
        (1..=K::ALL.len()).map(|n| K::ALL[..n].to_vec()).collect()
    }

    /// Record one class's scores under `metrics`, and its model's
    /// importances when `metrics` is the full set.
    fn record<K: MetricKind>(&mut self, metrics: &[K], scores: [f64; 3], importances: Vec<(K, f64)>) {
        self.scores.resize(self.scores.len().max(metrics.len()), Vec::new());
        self.scores[metrics.len() - 1].push(scores);
        if metrics.len() == K::ALL.len() {
            for (kind, importance) in importances {
                let entry = self.importance.entry(kind.name()).or_insert((0.0, 0));
                entry.0 += importance;
                entry.1 += 1;
            }
        }
    }

    /// Per metric set: the added metric, the class-averaged scores and the
    /// added metric's average importance.
    fn rows<K: MetricKind>(&self) -> impl Iterator<Item = (String, [f64; 3], f64)> + '_ {
        K::ALL.iter().enumerate().map(|(i, added)| {
            let scores = self.scores.get(i).map_or(&[][..], Vec::as_slice);
            let avg = |k: usize| {
                if scores.is_empty() { 0.0 } else { scores.iter().map(|s| s[k]).sum::<f64>() / scores.len() as f64 }
            };
            let importance = self.importance.get(added.name()).map_or(0.0, |(sum, n)| sum / *n as f64);
            (added.name().to_string(), [avg(0), avg(1), avg(2)], importance)
        })
    }
}

/// Restrict a gold standard to a subset of its clusters (by index),
/// re-indexing the facts accordingly.
fn restrict_gold(gold: &GoldStandard, cluster_indices: &[usize]) -> GoldStandard {
    let index_map: HashMap<usize, usize> =
        cluster_indices.iter().enumerate().map(|(new, &old)| (old, new)).collect();
    GoldStandard {
        class: gold.class,
        tables: gold.tables.clone(),
        clusters: cluster_indices.iter().map(|&i| gold.clusters[i].clone()).collect(),
        attributes: gold.attributes.clone(),
        facts: gold
            .facts
            .iter()
            .filter_map(|f| index_map.get(&f.cluster).map(|&new| {
                let mut f = f.clone();
                f.cluster = new;
                f
            }))
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Table 8 — new detection ablation
// ---------------------------------------------------------------------------

/// One row of Table 8.
#[derive(Debug, Clone)]
pub struct Table8Row {
    /// The last metric added.
    pub added_metric: String,
    /// Classification accuracy.
    pub accuracy: f64,
    /// F1 of the existing side.
    pub f1_existing: f64,
    /// F1 of the new side.
    pub f1_new: f64,
    /// Importance of the added metric in the full model.
    pub importance: f64,
}

/// Table 8: new detection performance as metrics are added one by one.
/// `mapping` is the first-iteration, default-weight corpus mapping.
pub fn table08_new_detection_ablation(trained: &TrainedWorld, mapping: &CorpusMapping) -> Vec<Table8Row> {
    let (corpus, kb, settings) = (&trained.corpus, trained.world.kb(), &trained.config);
    let sets = Ablation::sets::<EntityMetricKind>();
    let mut ablation = Ablation::default();

    let mut interner = Interner::new();
    for gold in &trained.golds {
        let class = gold.class;
        let index = kb.class_label_index(class);
        let implicit = ImplicitAttributes::build(corpus, mapping, kb, class, index);

        // Entities from the gold clusters (the Table 8 evaluation isolates
        // new detection by using gold clustering).
        let clusters: Vec<Vec<RowRef>> = gold.clusters.iter().map(|c| c.rows.clone()).collect();
        let entities = create_entities(&clusters, corpus, mapping, kb, class, &settings.fusion);
        let contexts: Vec<EntityContext> = entities
            .into_iter()
            .map(|e| EntityContext::build(e, corpus, &implicit, &mut interner))
            .collect();
        let truths: Vec<EntityTruth> = gold
            .clusters
            .iter()
            .map(|c| EntityTruth { is_new: c.is_new, instance: c.kb_instance })
            .collect();
        let instance_truth: Vec<Option<ltee_kb::InstanceId>> =
            gold.clusters.iter().map(|c| c.kb_instance).collect();

        // Grouped split.
        let groups = gold.cluster_fold_groups();
        let folds = grouped_k_folds(&groups, 3, trained.world.config.seed);
        let train_idx = &folds[0].train;
        let test_idx = &folds[0].test;

        for metrics in &sets {
            let train_contexts: Vec<EntityContext> =
                train_idx.iter().map(|&i| contexts[i].clone()).collect();
            let train_truth: Vec<Option<ltee_kb::InstanceId>> =
                train_idx.iter().map(|&i| instance_truth[i]).collect();
            let ds = build_entity_pair_dataset(&train_contexts, &train_truth, kb, index, metrics, &mut interner);
            if ds.positives() == 0 || ds.negatives() == 0 {
                continue;
            }
            let model = EntitySimilarityModel::train(
                &ds,
                metrics.clone(),
                AggregationMethod::Combined,
                &ENTITY_MODEL_TRAINING,
            );
            let test_contexts: Vec<EntityContext> =
                test_idx.iter().map(|&i| contexts[i].clone()).collect();
            let results = detect_new(&test_contexts, kb, index, &model, &settings.newdetect, &mut interner);
            let outcomes: Vec<_> = results.iter().map(|r| r.outcome).collect();
            let test_truths: Vec<EntityTruth> = test_idx.iter().map(|&i| truths[i]).collect();
            let eval = evaluate_new_detection(&outcomes, &test_truths);
            ablation.record(
                metrics,
                [eval.accuracy, eval.f1_existing, eval.f1_new],
                model.metric_importances(),
            );
        }
    }

    ablation
        .rows::<EntityMetricKind>()
        .map(|(added_metric, [accuracy, f1_existing, f1_new], importance)| Table8Row {
            added_metric,
            accuracy,
            f1_existing,
            f1_new,
            importance,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Tables 9 & 10 — end-to-end gold standard evaluation
// ---------------------------------------------------------------------------

/// One row of Table 9.
#[derive(Debug, Clone)]
pub struct Table9Row {
    /// Class name.
    pub class: String,
    /// Whether gold-standard clustering ("GS") or the system's clustering
    /// ("ALL") was used.
    pub clustering: String,
    /// Precision.
    pub precision: f64,
    /// Recall.
    pub recall: f64,
    /// F1.
    pub f1: f64,
}

/// One row of Table 10.
#[derive(Debug, Clone)]
pub struct Table10Row {
    /// Class name.
    pub class: String,
    /// Which components used gold annotations ("GS+GS", "GS+ALL", "ALL+ALL").
    pub setting: String,
    /// Facts-found F1 per fusion scoring method.
    pub f1_voting: f64,
    /// F1 with KBT scoring.
    pub f1_kbt: f64,
    /// F1 with MATCHING scoring.
    pub f1_matching: f64,
}

/// The end-to-end gold standard evaluation: Tables 9 and 10 computed from
/// `output`, the batch pipeline run of `trained` ([`TrainedWorld::run_batch`]).
pub fn table09_10_end_to_end(trained: &TrainedWorld, output: &PipelineOutput) -> (Vec<Table9Row>, Vec<Table10Row>) {
    let (corpus, kb, settings) = (&trained.corpus, trained.world.kb(), &trained.config);

    let mut table9 = Vec::new();
    let mut table10 = Vec::new();
    let mut avg_all: Vec<(f64, f64, f64)> = Vec::new();

    let mut interner = Interner::new();
    for gold in &trained.golds {
        let class = gold.class;
        let Some(class_output) = output.class(class) else { continue };
        let index = kb.class_label_index(class);
        let implicit = ImplicitAttributes::build(corpus, &output.mapping, kb, class, index);

        // --- "GS" clustering: entities fused from the gold clusters. -------
        let gs_clusters: Vec<Vec<RowRef>> = gold.clusters.iter().map(|c| c.rows.clone()).collect();
        let gs_entities = create_entities(&gs_clusters, corpus, &output.mapping, kb, class, &settings.fusion);
        let gs_contexts: Vec<EntityContext> = gs_entities
            .iter()
            .cloned()
            .map(|e| EntityContext::build(e, corpus, &implicit, &mut interner))
            .collect();
        let gs_results = detect_new(
            &gs_contexts,
            kb,
            index,
            &trained.models.entity_model,
            &settings.newdetect,
            &mut interner,
        );
        let gs_outcomes: Vec<_> = gs_results.iter().map(|r| r.outcome).collect();
        let gs_eval = evaluate_new_instances(&gs_entities, &gs_outcomes, gold);
        table9.push(Table9Row {
            class: class.short_name().to_string(),
            clustering: "GS".into(),
            precision: gs_eval.precision,
            recall: gs_eval.recall,
            f1: gs_eval.f1,
        });

        // --- "ALL": the system's own clustering. ----------------------------
        let all_outcomes = class_output.outcomes();
        let all_eval = evaluate_new_instances(&class_output.entities, &all_outcomes, gold);
        table9.push(Table9Row {
            class: class.short_name().to_string(),
            clustering: "ALL".into(),
            precision: all_eval.precision,
            recall: all_eval.recall,
            f1: all_eval.f1,
        });
        avg_all.push((all_eval.precision, all_eval.recall, all_eval.f1));

        // --- Table 10: facts found per scoring method. -----------------------
        for (setting, clusters, outcomes) in [
            ("GS+ALL", &gs_clusters, &gs_outcomes),
            ("ALL+ALL", &class_output.clusters, &all_outcomes),
        ] {
            let mut f1s = HashMap::new();
            for method in ScoringMethod::ALL {
                let fusion = EntityCreationConfig { scoring: method };
                let entities = create_entities(clusters, corpus, &output.mapping, kb, class, &fusion);
                let eval = evaluate_facts(&entities, outcomes, gold, kb, class);
                f1s.insert(method, eval.f1);
            }
            table10.push(Table10Row {
                class: class.short_name().to_string(),
                setting: setting.to_string(),
                f1_voting: f1s[&ScoringMethod::Voting],
                f1_kbt: f1s[&ScoringMethod::Kbt],
                f1_matching: f1s[&ScoringMethod::Matching],
            });
        }
    }

    // Average row (paper Table 9 last row).
    if !avg_all.is_empty() {
        let n = avg_all.len() as f64;
        table9.push(Table9Row {
            class: "Average".into(),
            clustering: "ALL".into(),
            precision: avg_all.iter().map(|r| r.0).sum::<f64>() / n,
            recall: avg_all.iter().map(|r| r.1).sum::<f64>() / n,
            f1: avg_all.iter().map(|r| r.2).sum::<f64>() / n,
        });
    }
    (table9, table10)
}

// ---------------------------------------------------------------------------
// Tables 11 & 12 — large-scale profiling
// ---------------------------------------------------------------------------

/// One row of Table 11.
#[derive(Debug, Clone)]
pub struct Table11Row {
    /// Class name.
    pub class: String,
    /// Total rows matched to the class.
    pub total_rows: usize,
    /// Entities matched to existing instances.
    pub existing_entities: usize,
    /// Distinct knowledge base instances they were matched to.
    pub matched_kb_instances: usize,
    /// Entities classified as new.
    pub new_entities: usize,
    /// Facts of the new entities.
    pub new_facts: usize,
    /// Relative increase in instances vs the knowledge base.
    pub instance_increase: f64,
    /// Relative increase in facts vs the knowledge base.
    pub fact_increase: f64,
    /// Accuracy of a sample of new entities (truly new and of the class).
    pub new_entity_accuracy: f64,
    /// Accuracy of the facts of those new entities.
    pub new_fact_accuracy: f64,
}

/// The output of the large-scale profiling run: Table 11 rows plus the
/// per-property densities of the new entities (Table 12).
#[derive(Debug, Clone)]
pub struct ProfilingResult {
    /// Table 11 rows.
    pub table11: Vec<Table11Row>,
    /// Table 12 rows.
    pub table12: Vec<DensityRow>,
}

/// Tables 11 & 12: profile the new entities of `output`, the batch pipeline
/// run of `trained` over its full corpus. Accuracy is measured against the
/// synthetic world's ground truth (the stand-in for the paper's manual
/// inspection of a stratified sample).
pub fn table11_12_profiling(trained: &TrainedWorld, output: &PipelineOutput) -> ProfilingResult {
    let (world, corpus, kb) = (&trained.world, &trained.corpus, trained.world.kb());

    let mut table11 = Vec::new();
    let mut table12 = Vec::new();

    for &class in &CLASS_KEYS {
        let Some(class_output) = output.class(class) else { continue };
        let gold = trained.gold(class);
        let total_rows = output.mapping.class_rows(corpus, class).len();

        let existing: Vec<_> = class_output.existing_entities();
        let matched_instances: std::collections::HashSet<_> = existing.iter().map(|(_, id)| *id).collect();
        let new_entities = class_output.new_entities();
        let new_facts: usize = new_entities.iter().map(|e| e.fact_count()).sum();

        // Accuracy against the world: an entity counts as a correct new
        // entity when its rows map to a gold cluster that is truly new and
        // of the target class.
        let mut correct_new = 0usize;
        let mut world_entity_of: Vec<Option<ltee_kb::EntityId>> = Vec::new();
        for entity in &new_entities {
            let cluster = ltee_eval::instances::entity_gold_cluster(&entity.rows, gold);
            match cluster {
                Some(ci) if gold.clusters[ci].is_new && gold.clusters[ci].is_target_class => {
                    correct_new += 1;
                    world_entity_of.push(Some(gold.clusters[ci].entity));
                }
                Some(ci) => world_entity_of.push(Some(gold.clusters[ci].entity)),
                None => world_entity_of.push(None),
            }
        }
        let new_entity_accuracy =
            if new_entities.is_empty() { 0.0 } else { correct_new as f64 / new_entities.len() as f64 };
        let new_fact_accuracy = fact_accuracy_against_world(
            &new_entities,
            world,
            |e| {
                new_entities
                    .iter()
                    .position(|n| std::ptr::eq(*n, e))
                    .and_then(|i| world_entity_of[i])
            },
            class,
        );

        let kb_instances = kb.class_instance_count(class);
        let kb_facts = kb.class_fact_count(class);
        table11.push(Table11Row {
            class: class.short_name().to_string(),
            total_rows,
            existing_entities: existing.len(),
            matched_kb_instances: matched_instances.len(),
            new_entities: new_entities.len(),
            new_facts,
            instance_increase: if kb_instances == 0 { 0.0 } else { new_entities.len() as f64 / kb_instances as f64 },
            fact_increase: if kb_facts == 0 { 0.0 } else { new_facts as f64 / kb_facts as f64 },
            new_entity_accuracy,
            new_fact_accuracy,
        });

        // Table 12: property densities of the new entities.
        let mut per_property: HashMap<&'static str, usize> = HashMap::new();
        for entity in &new_entities {
            for &(prop, _, _) in &entity.facts {
                *per_property.entry(prop).or_insert(0) += 1;
            }
        }
        let mut rows: Vec<DensityRow> = per_property
            .into_iter()
            .map(|(property, facts)| DensityRow {
                class: class.short_name().to_string(),
                property,
                facts,
                density: if new_entities.is_empty() { 0.0 } else { facts as f64 / new_entities.len() as f64 },
            })
            .collect();
        // Property name as tiebreak: the rows come out of a HashMap, so
        // equal densities would otherwise print in hash order.
        rows.sort_by(|a, b| {
            b.density
                .partial_cmp(&a.density)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.property.cmp(b.property))
        });
        table12.extend(rows);
    }

    ProfilingResult { table11, table12 }
}

// ---------------------------------------------------------------------------
// Section 6 — ranked evaluation (set expansion comparison)
// ---------------------------------------------------------------------------

/// Section 6 ranked evaluation: rank the entities returned as new by their
/// distance to the closest existing instance (higher distance first) and
/// evaluate MAP@256, P@5 and P@20 against the gold standard. `output` is
/// the batch pipeline run of `trained`.
pub fn ranked_set_expansion_eval(trained: &TrainedWorld, output: &PipelineOutput) -> RankedEvaluation {

    // Collect (score, correct) across classes; lower best_score = farther
    // from any existing instance = ranked higher.
    let mut ranked: Vec<(f64, bool)> = Vec::new();
    for class_output in &output.classes {
        let gold = trained.gold(class_output.class);
        for (entity, result) in class_output.entities.iter().zip(class_output.results.iter()) {
            if !result.outcome.is_new() {
                continue;
            }
            let correct = ltee_eval::instances::entity_gold_cluster(&entity.rows, gold)
                .map(|ci| gold.clusters[ci].is_new && gold.clusters[ci].is_target_class)
                .unwrap_or(false);
            ranked.push((result.best_score, correct));
        }
    }
    ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let flags: Vec<bool> = ranked.into_iter().map(|(_, c)| c).collect();
    RankedEvaluation::from_ranked(&flags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ModelArtifact;

    /// The tiny experiment's world and corpus, untrained.
    fn tiny_world() -> (World, GeneratedCorpus) {
        let config = ExperimentConfig::tiny();
        let world = generate_world(&GeneratorConfig::new(config.scale, config.seed));
        let corpus = generate_corpus(&world, &config.corpus);
        (world, corpus)
    }

    #[test]
    fn trained_world_is_deterministic() {
        let a = TrainedWorld::train(7);
        let b = TrainedWorld::train(7);
        assert_eq!(a.corpus.tables(), b.corpus.tables());
        assert_eq!(a.golds.len(), CLASS_KEYS.len());
        // Both setups trained byte-identical models.
        assert_eq!(
            ModelArtifact::new(a.models, &a.config).encode(),
            ModelArtifact::new(b.models, &b.config).encode()
        );
    }

    #[test]
    fn kb_profile_tables_have_three_classes() {
        let (world, corpus) = tiny_world();
        assert_eq!(table01_kb_profile(&world).len(), 3);
        let t2 = table02_property_density(&world);
        assert_eq!(t2.len(), 11 + 7 + 5);
        let t3 = table03_corpus_stats(&corpus);
        assert!(t3.tables > 0);
    }

    #[test]
    fn table04_and_05_have_rows_per_class() {
        let (world, corpus) = tiny_world();
        let mapping = match_corpus(
            &corpus,
            world.kb(),
            &ltee_matching::MatcherWeights::default(),
            &PipelineConfig::fast().schema,
            None,
        );
        let t4 = table04_value_correspondences(&corpus, &mapping);
        assert_eq!(t4.len(), 3);
        assert!(t4.iter().any(|r| r.matched_values > 0));
        let t5 = table05_gold_standard(&world, &corpus);
        assert_eq!(t5.len(), 3);
        assert!(t5.iter().all(|r| r.stats.rows > 0));
    }

    #[test]
    fn restrict_gold_reindexes_facts() {
        let (world, corpus) = tiny_world();
        let gold = GoldStandard::build(&world, &corpus, ltee_kb::ClassKey::Song);
        let subset: Vec<usize> = (0..gold.clusters.len().min(5)).collect();
        let restricted = restrict_gold(&gold, &subset);
        assert_eq!(restricted.clusters.len(), subset.len());
        for f in &restricted.facts {
            assert!(f.cluster < restricted.clusters.len());
        }
    }
}
