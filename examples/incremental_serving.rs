//! Train-once / serve-many walkthrough: train the models on one corpus,
//! persist them as a versioned binary artifact, load the artifact into an
//! `IncrementalPipeline`, and ingest a stream of micro-batches of new web
//! tables without ever retraining — exactly the serving topology a
//! production deployment uses (one offline trainer, N stateless loaders).
//!
//! Run with: `cargo run --release --example incremental_serving`

use ltee_core::prelude::*;

fn main() {
    // ── Train phase (offline, once) ─────────────────────────────────────
    let TrainedWorld { world, corpus, models, config, .. } = TrainedWorld::train(42);

    let artifact = ModelArtifact::new(models, &config);
    let path = std::env::temp_dir().join("ltee-incremental-serving.model");
    artifact.save(&path).expect("writable temp dir");
    let size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "train : models trained and saved to {} ({} KiB, fingerprint {:#018x})",
        path.display(),
        size / 1024,
        artifact.fingerprint
    );

    // ── Serve phase (online, any number of processes) ───────────────────
    // A serving process loads the artifact once; the fingerprint check
    // refuses artifacts trained under a different inference configuration.
    // This process ingests with two class shards: per-class state is
    // grouped into shard buckets that run concurrently on the pool. A
    // shard plan is pure execution placement — the output (and the
    // equivalence assertion below) is bit-identical at every shard count,
    // and the fingerprint check passes because shards, like parallelism,
    // are excluded from the config fingerprint.
    let serve_config =
        PipelineConfig { shards: ShardPlan::Shards(2), ..config.clone() };
    let loaded = ModelArtifact::load(&path).expect("readable artifact");
    let mut serving = IncrementalPipeline::from_artifact(world.kb(), &loaded, serve_config)
        .expect("artifact matches the serve config");
    println!("serve : ingesting with {} class shards", serving.shard_count());

    // New tables arrive continuously; here the corpus stands in for the
    // stream, delivered in micro-batches of up to 8 tables, the way a
    // crawler hands over work.
    for (i, batch) in corpus.split_by_tables(8).iter().enumerate() {
        let report = serving.ingest(batch).expect("fresh table ids");
        println!(
            "serve : batch {i}: +{} tables, +{} rows ({} mapped) -> {} new / {} updated clusters, {} entities currently new",
            report.tables,
            report.rows,
            report.mapped_rows,
            report.new_clusters,
            report.updated_clusters,
            report.new_entities,
        );
    }

    // The cumulative output has the same shape as a batch pipeline run.
    let output = serving.output();
    println!("\ncumulative state after the stream:");
    for class_output in &output.classes {
        println!(
            "  {:<12} {:>4} clusters -> {:>3} new entities, {:>3} linked to existing instances",
            class_output.class.to_string(),
            class_output.clusters.len(),
            class_output.new_entities().len(),
            class_output.existing_entities().len(),
        );
    }

    // Contract check: the micro-batched ingest equals one streaming pass
    // over the union corpus, bit for bit.
    let union = Pipeline::new(world.kb(), loaded.models.clone(), config)
        .run_streaming(&corpus)
        .expect("non-empty corpus");
    let decisions = |o: &PipelineOutput| -> Vec<(ClassKey, Vec<bool>)> {
        o.classes
            .iter()
            .map(|c| (c.class, c.results.iter().map(|r| r.outcome.is_new()).collect()))
            .collect()
    };
    assert_eq!(decisions(&output), decisions(&union));
    println!("\nequivalence: micro-batched ingest == one streaming union pass ✓");

    std::fs::remove_file(&path).ok();
}
