//! Incremental ingest throughput bench: rows/second through the serve-phase
//! `IncrementalPipeline` as a corpus streams in as micro-batches, written to
//! `BENCH_ingest.json` at the repository root.
//!
//! Runs as a plain binary (`harness = false`):
//!
//! ```sh
//! cargo bench -p ltee-bench --bench ingest_throughput
//! ```
//!
//! Environment knobs: `LTEE_BENCH_BATCHES` (micro-batch count, default 8)
//! and `LTEE_BENCH_THREADS` (worker threads, default: available
//! parallelism, at least 2). As a side effect the bench re-checks the
//! incremental equivalence contract: the batched ingest must produce the
//! same new-entity fingerprint as one streaming pass over the union.

use std::time::Instant;

use ltee_bench::support::env_usize;
use ltee_core::prelude::*;

fn fingerprint(output: &PipelineOutput) -> usize {
    output
        .classes
        .iter()
        .map(|c| c.clusters.len() + 31 * c.results.iter().filter(|r| r.outcome.is_new()).count())
        .sum()
}

fn main() {
    let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 777));
    let corpus = generate_corpus(&world, &CorpusConfig::tiny());
    let golds: Vec<GoldStandard> =
        CLASS_KEYS.iter().map(|&c| GoldStandard::build(&world, &corpus, c)).collect();

    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let threads = env_usize("LTEE_BENCH_THREADS", host_cores.max(2));
    let batch_count = env_usize("LTEE_BENCH_BATCHES", 8);

    let config =
        PipelineConfig { parallelism: Parallelism::Threads(threads), ..PipelineConfig::fast() };

    // Train phase (not measured): one offline training run, one artifact.
    let train_start = Instant::now();
    let models = train_models(&corpus, world.kb(), &golds, &config).expect("trainable corpus");
    let train_secs = train_start.elapsed().as_secs_f64();
    let artifact = ModelArtifact::new(models, &config);

    // Serve phase (measured): load the artifact once, ingest micro-batches.
    let mut serving = IncrementalPipeline::from_artifact(world.kb(), &artifact, config.clone())
        .expect("artifact fingerprint matches");
    let batches = corpus.split_into_batches(batch_count);
    let mut per_batch = Vec::with_capacity(batches.len());
    let total_start = Instant::now();
    for (i, batch) in batches.iter().enumerate() {
        let start = Instant::now();
        let report = serving.ingest(batch).expect("fresh table ids");
        let secs = start.elapsed().as_secs_f64();
        let rows_per_sec = if secs > 0.0 { report.rows as f64 / secs } else { 0.0 };
        println!(
            "bench: ingest_throughput batch={:<2} tables={:<3} rows={:<5} {:>8.3} s {:>10.1} rows/s ({} new / {} updated clusters)",
            i, report.tables, report.rows, secs, rows_per_sec, report.new_clusters, report.updated_clusters
        );
        per_batch.push((i, report.tables, report.rows, secs, rows_per_sec));
    }
    let total_secs = total_start.elapsed().as_secs_f64();
    let total_rows = corpus.total_rows();
    let total_rows_per_sec = total_rows as f64 / total_secs;
    println!(
        "bench: ingest_throughput total {total_rows} rows in {total_secs:.3} s = {total_rows_per_sec:.1} rows/s (train phase took {train_secs:.3} s, amortised away)"
    );

    // Equivalence re-check against one streaming pass over the union.
    let union = Pipeline::new(world.kb(), artifact.models.clone(), config)
        .run_streaming(&corpus)
        .expect("non-empty corpus");
    assert_eq!(
        fingerprint(&serving.output()),
        fingerprint(&union),
        "incremental equivalence contract violated"
    );

    let mut batches_json = String::new();
    for (i, tables, rows, secs, rps) in &per_batch {
        if !batches_json.is_empty() {
            batches_json.push_str(",\n    ");
        }
        batches_json.push_str(&format!(
            "{{ \"batch\": {i}, \"tables\": {tables}, \"rows\": {rows}, \"secs\": {secs:.6}, \"rows_per_sec\": {rps:.2} }}"
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"ingest_throughput\",\n  \"host_cores\": {host_cores},\n  \"threads\": {threads},\n  \"train_secs\": {train_secs:.6},\n  \"total_rows\": {total_rows},\n  \"total_secs\": {total_secs:.6},\n  \"rows_per_sec\": {total_rows_per_sec:.2},\n  \"batches\": [\n    {batches_json}\n  ]\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json");
    std::fs::write(path, &json).expect("write BENCH_ingest.json");
    println!("bench: wrote {path}");
}
