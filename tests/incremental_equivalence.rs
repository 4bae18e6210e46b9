//! Incremental-serving equivalence contract: ingesting a corpus as K
//! micro-batches through `IncrementalPipeline` must produce the same
//! clusters, fused entities and new-entity decisions as one streaming run
//! (`Pipeline::run_streaming`) over the union corpus with the same
//! artifact — bit-identically, and at every thread count.
//!
//! Deterministic: `Scale::tiny()` world with fixed seed 4711.
//! Expected runtime: ~30 s in debug (one training run, five serve runs).

use ltee_core::prelude::*;

use ltee::scenario as common;

fn setup() -> (World, GeneratedCorpus, ModelArtifact) {
    let TrainedWorld { world, corpus, models, config, .. } =
        TrainedWorld::train_with(4711, config_with(Parallelism::Threads(1)));
    let artifact = ModelArtifact::new(models, &config);
    // Serve-time stream: the training corpus plus exotic (bracketed /
    // non-ASCII, incl. multi-char-lowercase 'İ') label tables, so the serve
    // path's interned blocking and scoring sit inside the K-batches ==
    // union equivalence proof.
    let corpus =
        common::with_exotic_labels(corpus, ["(Live)", "[Zürich]", "\u{130}zmir"]);
    (world, corpus, artifact)
}

fn config_with(parallelism: Parallelism) -> PipelineConfig {
    config_sharded(parallelism, ShardPlan::Auto)
}

fn config_sharded(parallelism: Parallelism, shards: ShardPlan) -> PipelineConfig {
    PipelineConfig { parallelism, shards, ..PipelineConfig::fast() }
}

/// Assert two pipeline outputs are bit-identical in everything the serve
/// path produces: cluster membership, fused entities, detection outcomes
/// and raw detection scores.
fn assert_outputs_identical(a: &PipelineOutput, b: &PipelineOutput, label: &str) {
    assert_eq!(a.classes.len(), b.classes.len(), "{label}: class count");
    for (ca, cb) in a.classes.iter().zip(b.classes.iter()) {
        assert_eq!(ca.class, cb.class, "{label}");
        assert_eq!(ca.clusters, cb.clusters, "{label} / {}: clusters", ca.class);
        assert_eq!(ca.entities, cb.entities, "{label} / {}: entities", ca.class);
        assert_eq!(ca.results.len(), cb.results.len(), "{label} / {}", ca.class);
        for (ra, rb) in ca.results.iter().zip(cb.results.iter()) {
            assert_eq!(ra.outcome, rb.outcome, "{label} / {}: outcome", ca.class);
            assert_eq!(
                ra.best_score.to_bits(),
                rb.best_score.to_bits(),
                "{label} / {}: best_score bits",
                ca.class
            );
            assert_eq!(ra.candidate_count, rb.candidate_count, "{label} / {}", ca.class);
        }
    }
}

fn ingest_in_batches(
    world: &World,
    corpus: &Corpus,
    artifact: &ModelArtifact,
    batches: usize,
    parallelism: Parallelism,
) -> (PipelineOutput, Vec<IngestReport>) {
    ingest_in_batches_sharded(world, corpus, artifact, batches, parallelism, ShardPlan::Auto)
}

/// The part of a run's reports that does not depend on where the batch
/// boundaries fall: field-wise sums of `tables`, `rows`, `mapped_rows` and
/// `new_clusters` (a cluster is new in exactly one batch, whatever the split).
fn split_invariant_sums(reports: &[IngestReport]) -> [usize; 4] {
    reports.iter().fold([0; 4], |[t, r, m, n], report| {
        [t + report.tables, r + report.rows, m + report.mapped_rows, n + report.new_clusters]
    })
}

/// The shape `IngestReport::touched_clusters` must have after every batch:
/// one list per touched class, each strictly ascending and inside the
/// class's entity list, together naming every cluster the batch created or
/// extended exactly once.
fn assert_touched_clusters_are_well_formed(
    serving: &IncrementalPipeline<'_>,
    report: &IngestReport,
) {
    assert_eq!(report.touched_clusters.len(), report.touched_classes.len());
    for (&class, touched) in report.touched_classes.iter().zip(&report.touched_clusters) {
        let (entities, _) = serving.class_entities(class).expect("a touched class has entities");
        assert!(!touched.is_empty(), "{class}: a touched class names its clusters");
        assert!(touched.windows(2).all(|w| w[0] < w[1]), "{class}: not ascending: {touched:?}");
        assert!(touched.iter().all(|&c| c < entities.len()), "{class}: past the entity list");
    }
    let named: usize = report.touched_clusters.iter().map(Vec::len).sum();
    assert_eq!(named, report.new_clusters + report.updated_clusters);
}

fn ingest_in_batches_sharded(
    world: &World,
    corpus: &Corpus,
    artifact: &ModelArtifact,
    batches: usize,
    parallelism: Parallelism,
    shards: ShardPlan,
) -> (PipelineOutput, Vec<IngestReport>) {
    let mut serving = IncrementalPipeline::from_artifact(
        world.kb(),
        artifact,
        config_sharded(parallelism, shards),
    )
    .expect("artifact fingerprint matches");
    let mut reports = Vec::with_capacity(batches);
    for batch in corpus.split_into_batches(batches) {
        let report = serving.ingest(&batch).expect("fresh table ids");
        assert_eq!(report.tables, batch.len());
        assert_eq!(report.rows, batch.total_rows());
        assert_touched_clusters_are_well_formed(&serving, &report);
        reports.push(report);
    }
    let ingested_rows: usize = reports.iter().map(|r| r.rows).sum();
    assert_eq!(ingested_rows, corpus.total_rows());
    assert_eq!(serving.ingested_tables(), corpus.len());
    (serving.output(), reports)
}

#[test]
fn micro_batched_ingest_equals_streaming_union_run_at_every_thread_count() {
    let (world, corpus, artifact) = setup();

    // Reference: one streaming pass over the union corpus, single thread.
    let pipeline = Pipeline::new(
        world.kb(),
        artifact.models.clone(),
        config_with(Parallelism::Threads(1)),
    );
    let reference = pipeline.run_streaming(&corpus).expect("non-empty corpus");

    // K micro-batches, multiple K, multiple thread counts: all identical,
    // and the reports add up to the same totals however the stream is cut.
    let mut sums = Vec::new();
    for (batches, parallelism) in [
        (1usize, Parallelism::Threads(1)),
        (4, Parallelism::Threads(1)),
        (4, Parallelism::Threads(4)),
        (9, Parallelism::Threads(4)),
    ] {
        let (output, reports) =
            ingest_in_batches(&world, &corpus, &artifact, batches, parallelism);
        assert_outputs_identical(
            &reference,
            &output,
            &format!("K={batches}, {parallelism:?}"),
        );
        sums.push(split_invariant_sums(&reports));
    }
    assert!(sums.windows(2).all(|w| w[0] == w[1]), "report sums differ across splits: {sums:?}");

    // The streaming union run itself must also be thread-count invariant.
    let pipeline4 = Pipeline::new(
        world.kb(),
        artifact.models.clone(),
        config_with(Parallelism::Threads(4)),
    );
    let reference4 = pipeline4.run_streaming(&corpus).expect("non-empty corpus");
    assert_outputs_identical(&reference, &reference4, "run_streaming 1 vs 4 threads");

    // Sanity: the serve path actually finds both kinds of entities.
    let new_total: usize = reference.classes.iter().map(|c| c.new_entities().len()).sum();
    let existing_total: usize =
        reference.classes.iter().map(|c| c.existing_entities().len()).sum();
    assert!(new_total > 0, "serve path should discover new entities");
    assert!(existing_total > 0, "serve path should link entities to the KB");
}

#[test]
fn output_is_bit_identical_at_every_shard_and_thread_count() {
    // The class-sharding keystone: a `ShardPlan` is pure execution
    // placement, so the full shards × threads matrix must reproduce the
    // single-shard single-thread run bit for bit — same clusters, same
    // fused entities, same detection outcomes, same score bit patterns,
    // same per-batch `IngestReport`s.
    let (world, corpus, artifact) = setup();

    let (reference, reference_reports) = ingest_in_batches_sharded(
        &world,
        &corpus,
        &artifact,
        4,
        Parallelism::Threads(1),
        ShardPlan::Shards(1),
    );

    for shards in [1usize, 2, 4] {
        for threads in [1usize, 4] {
            if shards == 1 && threads == 1 {
                continue; // the reference itself
            }
            let (output, reports) = ingest_in_batches_sharded(
                &world,
                &corpus,
                &artifact,
                4,
                Parallelism::Threads(threads),
                ShardPlan::Shards(shards),
            );
            let label = format!("shards={shards}, threads={threads}");
            assert_outputs_identical(&reference, &output, &label);
            assert_eq!(reference_reports, reports, "{label}: ingest reports");
        }
    }
}

#[test]
fn equivalence_holds_for_non_ascending_table_ids() {
    // Tables are processed in arrival order, not id order: a stream whose
    // ids run backwards must still satisfy the K-batches == union contract.
    let (world, corpus, artifact) = setup();
    let reversed = Corpus::from_tables(corpus.tables().iter().rev().cloned().collect());

    let pipeline = Pipeline::new(
        world.kb(),
        artifact.models.clone(),
        config_with(Parallelism::Threads(1)),
    );
    let reference = pipeline.run_streaming(&reversed).expect("non-empty corpus");
    let (batched, _) = ingest_in_batches(&world, &reversed, &artifact, 5, Parallelism::Threads(1));
    assert_outputs_identical(&reference, &batched, "reversed ids, K=5");
}

#[test]
fn empty_batch_is_a_no_op_and_duplicate_tables_are_rejected() {
    let (world, corpus, artifact) = setup();
    let config = config_with(Parallelism::Threads(1));
    let mut serving = IncrementalPipeline::from_artifact(world.kb(), &artifact, config)
        .expect("artifact fingerprint matches");

    // Empty batch before any ingest: no-op.
    let report = serving.ingest(&Corpus::new()).expect("empty batch is fine");
    assert_eq!(report, IngestReport::default());
    assert_eq!(serving.ingested_tables(), 0);

    let batches = corpus.split_into_batches(2);
    serving.ingest(&batches[0]).expect("fresh table ids");
    let snapshot = serving.output();

    // Empty batch between real batches: state unchanged.
    serving.ingest(&Corpus::new()).expect("empty batch is fine");
    let after = serving.output();
    assert_eq!(snapshot.classes.len(), after.classes.len());
    for (a, b) in snapshot.classes.iter().zip(after.classes.iter()) {
        assert_eq!(a.clusters, b.clusters);
        assert_eq!(a.results, b.results);
    }

    // Re-ingesting an already seen table id fails without changing state.
    let err = serving.ingest(&batches[0]).unwrap_err();
    assert!(matches!(err, PipelineError::DuplicateTable(_)), "got {err:?}");
    let unchanged = serving.output();
    for (a, b) in after.classes.iter().zip(unchanged.classes.iter()) {
        assert_eq!(a.clusters, b.clusters);
    }

    // A duplicate id *within* one batch is rejected up front as well.
    let table = batches[1].tables()[0].clone();
    let doubled = Corpus::from_tables(vec![table.clone(), table]);
    let err = serving.ingest(&doubled).unwrap_err();
    assert!(matches!(err, PipelineError::DuplicateTable(_)), "got {err:?}");
    let still_unchanged = serving.output();
    for (a, b) in unchanged.classes.iter().zip(still_unchanged.classes.iter()) {
        assert_eq!(a.clusters, b.clusters);
    }
}

#[test]
fn clusters_partition_mapped_rows_in_serve_mode() {
    let (world, corpus, artifact) = setup();
    let (output, _) = ingest_in_batches(&world, &corpus, &artifact, 3, Parallelism::Threads(1));
    for class_output in &output.classes {
        let mapped = output.mapping.class_rows(&corpus, class_output.class).len();
        let clustered: usize = class_output.clusters.iter().map(|c| c.len()).sum();
        assert_eq!(clustered, mapped, "{}", class_output.class);
        assert_eq!(class_output.clusters.len(), class_output.entities.len());
        assert_eq!(class_output.entities.len(), class_output.results.len());
        // Every result's entity field points at its own cluster slot.
        for (i, r) in class_output.results.iter().enumerate() {
            assert_eq!(r.entity, i);
        }
    }
}
